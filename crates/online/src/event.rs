//! The streaming trace-event model.
//!
//! A measurement producer (an instrumented run, or a monitoring daemon
//! forwarding Apprentice summaries) emits a stream of [`TraceEvent`]s. The
//! model is *self-describing*: static structure (functions, regions, call
//! sites) is introduced by the events that first mention it, keyed by
//! stable names and source lines rather than database ids, so independent
//! producers never need to coordinate id allocation. Only two producer-side
//! identifiers exist: a [`RunKey`] unique per test run and a [`VersionTag`]
//! unique per program build, both plain `u64`s minted by the producer.

use crate::wire::{self, Reader, WireError};
use perfdata::{DateTime, RegionKind, TimingType};
use serde::{Deserialize, Serialize};
use std::fmt;

/// Version byte leading every wire-encoded event. Bump on any layout
/// change; decoders reject unknown versions with a typed error instead of
/// misreading bytes (the one-event frames of logs written before batch
/// frames lead with it, and the net's spec hash mixes it in).
pub const WIRE_VERSION: u8 = 1;

/// Producer-assigned identifier of one test run, unique within a session.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize, Default,
)]
pub struct RunKey(pub u64);

impl fmt::Display for RunKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "runkey{}", self.0)
    }
}

/// Producer-assigned identifier of one program build (version), unique
/// within a session. Two runs of the same build share a tag.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize, Default,
)]
pub struct VersionTag(pub u64);

impl fmt::Display for VersionTag {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "vtag{}", self.0)
    }
}

/// Stable identity of a region inside its function: name + first source
/// line (names alone may repeat between loop nests).
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct RegionRef {
    /// Region name (e.g. `solver:loop@12`).
    pub name: String,
    /// First source line.
    pub first_line: u32,
}

impl RegionRef {
    /// Convenience constructor.
    pub fn new(name: impl Into<String>, first_line: u32) -> Self {
        RegionRef {
            name: name.into(),
            first_line,
        }
    }
}

/// Full definition of a region, carried by [`TraceEvent::RegionEntered`]
/// the first time the region is observed.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RegionDef {
    /// Region name.
    pub name: String,
    /// Enclosing region, `None` for the subprogram root. Must refer to a
    /// region already introduced for the same function (streams describe
    /// structure top-down).
    pub parent: Option<RegionRef>,
    /// Construct kind.
    pub kind: RegionKind,
    /// First source line.
    pub first_line: u32,
    /// Last source line.
    pub last_line: u32,
}

/// Across-process statistics of one call site in one run — the streaming
/// form of [`perfdata::CallTiming`] without database ids.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Default)]
pub struct CallStats {
    /// Minimum pass count over processes.
    pub min_count: f64,
    /// Maximum pass count over processes.
    pub max_count: f64,
    /// Mean pass count over processes.
    pub mean_count: f64,
    /// Standard deviation of the pass count.
    pub stdev_count: f64,
    /// Processor with the minimum pass count.
    pub min_count_pe: u32,
    /// Processor with the maximum pass count.
    pub max_count_pe: u32,
    /// Minimum time spent in the callee (seconds).
    pub min_time: f64,
    /// Maximum time spent in the callee.
    pub max_time: f64,
    /// Mean time spent in the callee.
    pub mean_time: f64,
    /// Standard deviation of the time spent.
    pub stdev_time: f64,
    /// Processor with the minimum time.
    pub min_time_pe: u32,
    /// Processor with the maximum time.
    pub max_time_pe: u32,
}

/// One event of a measurement stream.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum TraceEvent {
    /// A test run began. Introduces the run, and — on first sight of the
    /// version tag — the program version itself.
    RunStarted {
        /// Producer id of the run.
        run: RunKey,
        /// Producer id of the build.
        version: VersionTag,
        /// Application name.
        program: String,
        /// Compilation timestamp of the build.
        compiled_at: DateTime,
        /// Source text (or structural sketch) of the build; only consulted
        /// the first time the version tag is seen.
        source: String,
        /// Run start timestamp.
        start: DateTime,
        /// Processor count of the run.
        no_pe: u32,
        /// Clock speed in MHz.
        clockspeed: u32,
    },
    /// A region was entered for the first time in a run: carries the
    /// region definition. Idempotent — re-announcing a known region is a
    /// no-op, so every run can (and should) describe its full structure.
    RegionEntered {
        /// The announcing run.
        run: RunKey,
        /// Containing function name.
        function: String,
        /// The region definition.
        region: RegionDef,
    },
    /// A region's summed-over-processes timing totals, emitted when the
    /// region completed (or as a running refinement: later events for the
    /// same region overwrite earlier totals).
    RegionExited {
        /// The measured run.
        run: RunKey,
        /// Containing function name.
        function: String,
        /// Which region.
        region: RegionRef,
        /// Exclusive computing time (seconds, summed over processes).
        excl: f64,
        /// Inclusive computing time.
        incl: f64,
        /// Measured overhead (inclusive of the subtree).
        ovhd: f64,
    },
    /// Time spent in one overhead category by a region (summed over
    /// processes). Later samples for the same (region, type) overwrite.
    TypedSample {
        /// The measured run.
        run: RunKey,
        /// Containing function name.
        function: String,
        /// Which region.
        region: RegionRef,
        /// Overhead category.
        ty: TimingType,
        /// Seconds, summed over all processes.
        time: f64,
    },
    /// Call-site statistics for one run. Introduces the call site (and the
    /// callee function) on first sight.
    CallSiteStat {
        /// The measured run.
        run: RunKey,
        /// Calling function name.
        caller: String,
        /// Called function name (e.g. the `barrier` runtime routine).
        callee: String,
        /// Region containing the call site.
        site: RegionRef,
        /// The statistics.
        stats: CallStats,
    },
    /// The run completed; its report can be finalized.
    RunFinished {
        /// The finished run.
        run: RunKey,
    },
}

impl TraceEvent {
    /// The run this event belongs to — what the engine layer's shard
    /// router keeps a run's stream together by.
    pub fn run_key(&self) -> RunKey {
        match self {
            TraceEvent::RunStarted { run, .. }
            | TraceEvent::RegionEntered { run, .. }
            | TraceEvent::RegionExited { run, .. }
            | TraceEvent::TypedSample { run, .. }
            | TraceEvent::CallSiteStat { run, .. }
            | TraceEvent::RunFinished { run } => *run,
        }
    }

    /// The same event re-addressed to another run (producer-side retry and
    /// replay tooling).
    pub fn with_run(mut self, key: RunKey) -> TraceEvent {
        match &mut self {
            TraceEvent::RunStarted { run, .. }
            | TraceEvent::RegionEntered { run, .. }
            | TraceEvent::RegionExited { run, .. }
            | TraceEvent::TypedSample { run, .. }
            | TraceEvent::CallSiteStat { run, .. }
            | TraceEvent::RunFinished { run } => *run = key,
        }
        self
    }

    /// Append the stable wire encoding of this event to `buf`: a
    /// [`WIRE_VERSION`] byte, a variant tag, then the fields in declaration
    /// order (little-endian integers, `f64` bit patterns, length-prefixed
    /// UTF-8 strings — see [`crate::wire`]).
    pub fn encode_wire(&self, buf: &mut Vec<u8>) {
        wire::put_u8(buf, WIRE_VERSION);
        wire::put_u8(buf, self.tag());
        match self {
            TraceEvent::RunStarted {
                run,
                version,
                program,
                compiled_at,
                source,
                start,
                no_pe,
                clockspeed,
            } => {
                wire::put_u64(buf, run.0);
                wire::put_u64(buf, version.0);
                wire::put_str(buf, program);
                wire::put_i64(buf, compiled_at.micros());
                wire::put_str(buf, source);
                wire::put_i64(buf, start.micros());
                wire::put_u32(buf, *no_pe);
                wire::put_u32(buf, *clockspeed);
            }
            TraceEvent::RegionEntered {
                run,
                function,
                region,
            } => {
                wire::put_u64(buf, run.0);
                wire::put_str(buf, function);
                wire::put_str(buf, &region.name);
                match &region.parent {
                    None => wire::put_u8(buf, 0),
                    Some(p) => {
                        wire::put_u8(buf, 1);
                        wire::put_str(buf, &p.name);
                        wire::put_u32(buf, p.first_line);
                    }
                }
                wire::put_u8(buf, wire::region_kind_code(region.kind));
                wire::put_u32(buf, region.first_line);
                wire::put_u32(buf, region.last_line);
            }
            TraceEvent::RegionExited {
                run,
                function,
                region,
                excl,
                incl,
                ovhd,
            } => {
                wire::put_u64(buf, run.0);
                wire::put_str(buf, function);
                wire::put_str(buf, &region.name);
                wire::put_u32(buf, region.first_line);
                wire::put_f64(buf, *excl);
                wire::put_f64(buf, *incl);
                wire::put_f64(buf, *ovhd);
            }
            TraceEvent::TypedSample {
                run,
                function,
                region,
                ty,
                time,
            } => {
                wire::put_u64(buf, run.0);
                wire::put_str(buf, function);
                wire::put_str(buf, &region.name);
                wire::put_u32(buf, region.first_line);
                wire::put_u8(buf, ty.code());
                wire::put_f64(buf, *time);
            }
            TraceEvent::CallSiteStat {
                run,
                caller,
                callee,
                site,
                stats,
            } => {
                wire::put_u64(buf, run.0);
                wire::put_str(buf, caller);
                wire::put_str(buf, callee);
                wire::put_str(buf, &site.name);
                wire::put_u32(buf, site.first_line);
                wire::put_f64(buf, stats.min_count);
                wire::put_f64(buf, stats.max_count);
                wire::put_f64(buf, stats.mean_count);
                wire::put_f64(buf, stats.stdev_count);
                wire::put_u32(buf, stats.min_count_pe);
                wire::put_u32(buf, stats.max_count_pe);
                wire::put_f64(buf, stats.min_time);
                wire::put_f64(buf, stats.max_time);
                wire::put_f64(buf, stats.mean_time);
                wire::put_f64(buf, stats.stdev_time);
                wire::put_u32(buf, stats.min_time_pe);
                wire::put_u32(buf, stats.max_time_pe);
            }
            TraceEvent::RunFinished { run } => {
                wire::put_u64(buf, run.0);
            }
        }
    }

    /// The variant's wire tag, the byte after [`WIRE_VERSION`].
    pub(crate) fn tag(&self) -> u8 {
        match self {
            TraceEvent::RunStarted { .. } => 0,
            TraceEvent::RegionEntered { .. } => 1,
            TraceEvent::RegionExited { .. } => 2,
            TraceEvent::TypedSample { .. } => 3,
            TraceEvent::CallSiteStat { .. } => 4,
            TraceEvent::RunFinished { .. } => 5,
        }
    }

    /// Turn `slot` into the variant of wire tag `tag`, its scalars zeroed,
    /// holding the strings the slot held: a slot that changes variant
    /// keeps their buffers for the decode that overwrites them.
    pub(crate) fn reshape(slot: &mut TraceEvent, tag: u8) -> Result<(), WireError> {
        let take = std::mem::take::<String>;
        let [a, b, c] = match slot {
            TraceEvent::RunStarted {
                program, source, ..
            } => [take(program), take(source), String::new()],
            TraceEvent::RegionEntered {
                function, region, ..
            } => [
                take(function),
                take(&mut region.name),
                region.parent.take().map(|p| p.name).unwrap_or_default(),
            ],
            TraceEvent::RegionExited {
                function, region, ..
            }
            | TraceEvent::TypedSample {
                function, region, ..
            } => [take(function), take(&mut region.name), String::new()],
            TraceEvent::CallSiteStat {
                caller,
                callee,
                site,
                ..
            } => [take(caller), take(callee), take(&mut site.name)],
            TraceEvent::RunFinished { .. } => Default::default(),
        };
        let run = RunKey::default();
        *slot = match tag {
            0 => TraceEvent::RunStarted {
                run,
                version: VersionTag::default(),
                program: a,
                compiled_at: DateTime(0),
                source: b,
                start: DateTime(0),
                no_pe: 0,
                clockspeed: 0,
            },
            1 => TraceEvent::RegionEntered {
                run,
                function: a,
                region: RegionDef {
                    name: b,
                    parent: None,
                    kind: RegionKind::Subprogram,
                    first_line: 0,
                    last_line: 0,
                },
            },
            2 => TraceEvent::RegionExited {
                run,
                function: a,
                region: RegionRef::new(b, 0),
                excl: 0.0,
                incl: 0.0,
                ovhd: 0.0,
            },
            3 => TraceEvent::TypedSample {
                run,
                function: a,
                region: RegionRef::new(b, 0),
                ty: TimingType::ALL[0],
                time: 0.0,
            },
            4 => TraceEvent::CallSiteStat {
                run,
                caller: a,
                callee: b,
                site: RegionRef::new(c, 0),
                stats: CallStats::default(),
            },
            5 => TraceEvent::RunFinished { run },
            code => {
                return Err(WireError::BadEnum {
                    what: "event tag",
                    code,
                })
            }
        };
        Ok(())
    }

    /// Decode one event from its wire encoding. The whole of `bytes` must
    /// be consumed; partial or trailing input is a [`WireError`]. This is
    /// [`TraceEvent::decode_wire_into`] over a fresh slot.
    pub fn decode_wire(bytes: &[u8]) -> Result<TraceEvent, WireError> {
        let mut event = TraceEvent::default();
        TraceEvent::decode_wire_into(bytes, &mut event)?;
        Ok(event)
    }

    /// Decode one event from its wire encoding into `slot`, overwriting
    /// it in place: the strings the slot holds — of whatever variant —
    /// are cleared and refilled, so a warm slot decodes without
    /// allocating. The one decoder of the format ([`TraceEvent::decode_wire`]
    /// wraps it), so both accept exactly the same inputs and fail with the
    /// same [`WireError`]. On `Err` the slot holds some valid event of no
    /// meaning.
    pub fn decode_wire_into(bytes: &[u8], slot: &mut TraceEvent) -> Result<(), WireError> {
        let mut r = Reader::new(bytes);
        let version = r.get_u8("wire version")?;
        if version != WIRE_VERSION {
            return Err(WireError::UnsupportedVersion(version));
        }
        let tag = r.get_u8("event tag")?;
        if slot.tag() != tag {
            TraceEvent::reshape(slot, tag)?;
        }
        match slot {
            TraceEvent::RunStarted {
                run,
                version,
                program,
                compiled_at,
                source,
                start,
                no_pe,
                clockspeed,
            } => {
                run.0 = r.get_u64("run key")?;
                version.0 = r.get_u64("version tag")?;
                set_str(program, r.get_str_ref("program")?);
                compiled_at.0 = r.get_i64("compiled_at")?;
                set_str(source, r.get_str_ref("source")?);
                start.0 = r.get_i64("start")?;
                *no_pe = r.get_u32("no_pe")?;
                *clockspeed = r.get_u32("clockspeed")?;
            }
            TraceEvent::RegionEntered {
                run,
                function,
                region,
            } => {
                run.0 = r.get_u64("run key")?;
                set_str(function, r.get_str_ref("function")?);
                set_str(&mut region.name, r.get_str_ref("region name")?);
                match r.get_u8("parent flag")? {
                    0 => region.parent = None,
                    1 => {
                        let name = r.get_str_ref("parent name")?;
                        let first_line = r.get_u32("parent line")?;
                        match &mut region.parent {
                            Some(parent) => {
                                set_str(&mut parent.name, name);
                                parent.first_line = first_line;
                            }
                            None => region.parent = Some(RegionRef::new(name, first_line)),
                        }
                    }
                    code => {
                        return Err(WireError::BadEnum {
                            what: "parent flag",
                            code,
                        })
                    }
                }
                let kind_code = r.get_u8("region kind")?;
                region.kind = wire::region_kind_from_code(kind_code).ok_or(WireError::BadEnum {
                    what: "region kind",
                    code: kind_code,
                })?;
                region.first_line = r.get_u32("first_line")?;
                region.last_line = r.get_u32("last_line")?;
            }
            TraceEvent::RegionExited {
                run,
                function,
                region,
                excl,
                incl,
                ovhd,
            } => {
                run.0 = r.get_u64("run key")?;
                set_str(function, r.get_str_ref("function")?);
                set_str(&mut region.name, r.get_str_ref("region name")?);
                region.first_line = r.get_u32("region line")?;
                *excl = r.get_f64("excl")?;
                *incl = r.get_f64("incl")?;
                *ovhd = r.get_f64("ovhd")?;
            }
            TraceEvent::TypedSample {
                run,
                function,
                region,
                ty,
                time,
            } => {
                run.0 = r.get_u64("run key")?;
                set_str(function, r.get_str_ref("function")?);
                set_str(&mut region.name, r.get_str_ref("region name")?);
                region.first_line = r.get_u32("region line")?;
                let ty_code = r.get_u8("timing type")?;
                *ty = TimingType::from_code(ty_code).ok_or(WireError::BadEnum {
                    what: "timing type",
                    code: ty_code,
                })?;
                *time = r.get_f64("time")?;
            }
            TraceEvent::CallSiteStat {
                run,
                caller,
                callee,
                site,
                stats,
            } => {
                run.0 = r.get_u64("run key")?;
                set_str(caller, r.get_str_ref("caller")?);
                set_str(callee, r.get_str_ref("callee")?);
                set_str(&mut site.name, r.get_str_ref("site name")?);
                site.first_line = r.get_u32("site line")?;
                stats.min_count = r.get_f64("min_count")?;
                stats.max_count = r.get_f64("max_count")?;
                stats.mean_count = r.get_f64("mean_count")?;
                stats.stdev_count = r.get_f64("stdev_count")?;
                stats.min_count_pe = r.get_u32("min_count_pe")?;
                stats.max_count_pe = r.get_u32("max_count_pe")?;
                stats.min_time = r.get_f64("min_time")?;
                stats.max_time = r.get_f64("max_time")?;
                stats.mean_time = r.get_f64("mean_time")?;
                stats.stdev_time = r.get_f64("stdev_time")?;
                stats.min_time_pe = r.get_u32("min_time_pe")?;
                stats.max_time_pe = r.get_u32("max_time_pe")?;
            }
            TraceEvent::RunFinished { run } => run.0 = r.get_u64("run key")?,
        }
        r.finish()
    }

    /// Short event-kind name for diagnostics.
    pub fn kind(&self) -> &'static str {
        match self {
            TraceEvent::RunStarted { .. } => "run-started",
            TraceEvent::RegionEntered { .. } => "region-entered",
            TraceEvent::RegionExited { .. } => "region-exited",
            TraceEvent::TypedSample { .. } => "typed-sample",
            TraceEvent::CallSiteStat { .. } => "call-site-stat",
            TraceEvent::RunFinished { .. } => "run-finished",
        }
    }
}

impl Default for TraceEvent {
    /// `RunFinished` of run 0: an event owning no heap memory, the slot a
    /// [`TraceEvent::decode_wire_into`] caller starts from.
    fn default() -> Self {
        TraceEvent::RunFinished {
            run: RunKey::default(),
        }
    }
}

/// Overwrite `dst` with `src` inside `dst`'s own buffer (no allocation
/// once that buffer is long enough; a buffer that grows grows amortized).
/// A string of a fresh slot has none: it is allocated at `src`'s length
/// at once, which costs a fresh decode no more than a copied string.
pub(crate) fn set_str(dst: &mut String, src: &str) {
    if dst.capacity() == 0 {
        *dst = src.to_owned();
    } else {
        dst.clear();
        dst.push_str(src);
    }
}

/// An ingestion failure. Events referring to structure that was never
/// announced are rejected rather than guessed at.
#[derive(Debug, Clone, PartialEq)]
pub enum IngestError {
    /// An event referenced a run with no preceding `RunStarted`.
    UnknownRun(RunKey),
    /// A run key was reused by a second `RunStarted`.
    DuplicateRun(RunKey),
    /// A `RunStarted` declared zero processors. Properties divide by a
    /// run's `NoPe` (`IoContention`'s growth factor, for one), so the run
    /// is refused at the door rather than failing every later flush.
    NoProcessors(RunKey),
    /// An event referenced a function never introduced for its version.
    UnknownFunction {
        /// The offending run.
        run: RunKey,
        /// The unresolved function name.
        function: String,
    },
    /// An event referenced a region never introduced.
    UnknownRegion {
        /// The offending run.
        run: RunKey,
        /// Containing function name.
        function: String,
        /// The unresolved region reference.
        region: RegionRef,
    },
    /// A `RegionEntered` referenced an unknown parent region.
    UnknownParent {
        /// The offending run.
        run: RunKey,
        /// Containing function name.
        function: String,
        /// The unresolved parent reference.
        parent: RegionRef,
    },
    /// The durable session could not append to its write-ahead log (the
    /// event was **not** applied: write-ahead means no event reaches the
    /// store unless it is on disk first — and on this error, no frame of
    /// the batch remains in the log either, so a retry cannot
    /// double-log).
    ///
    /// The failure's op is the step that failed: the append, the fsync
    /// riding on it, or the repair of an earlier torn append or reset.
    Wal(faults::IoFailure),
}

impl fmt::Display for IngestError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IngestError::UnknownRun(k) => write!(f, "unknown run {k}"),
            IngestError::DuplicateRun(k) => write!(f, "duplicate RunStarted for {k}"),
            IngestError::NoProcessors(k) => {
                write!(f, "RunStarted for {k} declares zero processors")
            }
            IngestError::UnknownFunction { run, function } => {
                write!(f, "unknown function `{function}` in {run}")
            }
            IngestError::UnknownRegion {
                run,
                function,
                region,
            } => write!(
                f,
                "unknown region `{}`@{} of `{function}` in {run}",
                region.name, region.first_line
            ),
            IngestError::UnknownParent {
                run,
                function,
                parent,
            } => write!(
                f,
                "unknown parent region `{}`@{} of `{function}` in {run}",
                parent.name, parent.first_line
            ),
            IngestError::Wal(failure) => write!(f, "write-ahead log: {failure}"),
        }
    }
}

impl std::error::Error for IngestError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            IngestError::Wal(failure) => Some(failure),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_key_extraction_covers_all_variants() {
        let k = RunKey(7);
        let events = [
            TraceEvent::RunStarted {
                run: k,
                version: VersionTag(1),
                program: "x".into(),
                compiled_at: DateTime::from_secs(0),
                source: String::new(),
                start: DateTime::from_secs(1),
                no_pe: 4,
                clockspeed: 450,
            },
            TraceEvent::RunFinished { run: k },
            TraceEvent::TypedSample {
                run: k,
                function: "main".into(),
                region: RegionRef::new("main", 1),
                ty: TimingType::Barrier,
                time: 0.5,
            },
        ];
        for e in &events {
            assert_eq!(e.run_key(), k, "{}", e.kind());
        }
    }

    #[test]
    fn wire_roundtrip_covers_all_variants() {
        let events = [
            TraceEvent::RunStarted {
                run: RunKey(u64::MAX),
                version: VersionTag(3),
                program: "app".into(),
                compiled_at: DateTime::from_secs(-7),
                source: "program app\n".into(),
                start: DateTime::from_secs(99),
                no_pe: 64,
                clockspeed: 450,
            },
            TraceEvent::RegionEntered {
                run: RunKey(1),
                function: "main".into(),
                region: RegionDef {
                    name: "main:loop@5".into(),
                    parent: Some(RegionRef::new("main", 1)),
                    kind: RegionKind::Loop,
                    first_line: 5,
                    last_line: 50,
                },
            },
            TraceEvent::RegionEntered {
                run: RunKey(1),
                function: "main".into(),
                region: RegionDef {
                    name: "main".into(),
                    parent: None,
                    kind: RegionKind::Subprogram,
                    first_line: 1,
                    last_line: 90,
                },
            },
            TraceEvent::RegionExited {
                run: RunKey(2),
                function: "main".into(),
                region: RegionRef::new("main", 1),
                excl: -0.0,
                incl: 1.5e-300,
                ovhd: f64::INFINITY,
            },
            TraceEvent::TypedSample {
                run: RunKey(2),
                function: "main".into(),
                region: RegionRef::new("main", 1),
                ty: TimingType::Instrumentation,
                time: 0.25,
            },
            TraceEvent::CallSiteStat {
                run: RunKey(2),
                caller: "main".into(),
                callee: "barrier".into(),
                site: RegionRef::new("main", 1),
                stats: CallStats {
                    min_count: 1.0,
                    max_count: 2.0,
                    mean_count: 1.5,
                    stdev_count: 0.5,
                    min_count_pe: 0,
                    max_count_pe: 3,
                    min_time: 0.1,
                    max_time: 0.4,
                    mean_time: 0.2,
                    stdev_time: 0.1,
                    min_time_pe: 1,
                    max_time_pe: 2,
                },
            },
            TraceEvent::RunFinished { run: RunKey(2) },
        ];
        for event in &events {
            let mut buf = Vec::new();
            event.encode_wire(&mut buf);
            let back =
                TraceEvent::decode_wire(&buf).unwrap_or_else(|e| panic!("{}: {e}", event.kind()));
            assert_eq!(&back, event, "{}", event.kind());
        }
    }

    #[test]
    fn wire_decode_rejects_bad_input() {
        use crate::wire::WireError;
        let mut buf = Vec::new();
        TraceEvent::RunFinished { run: RunKey(9) }.encode_wire(&mut buf);
        // Unknown version byte.
        let mut bad = buf.clone();
        bad[0] = 99;
        assert_eq!(
            TraceEvent::decode_wire(&bad),
            Err(WireError::UnsupportedVersion(99))
        );
        // Unknown variant tag.
        let mut bad = buf.clone();
        bad[1] = 200;
        assert!(matches!(
            TraceEvent::decode_wire(&bad),
            Err(WireError::BadEnum {
                what: "event tag",
                ..
            })
        ));
        // Truncated payload.
        assert!(matches!(
            TraceEvent::decode_wire(&buf[..buf.len() - 1]),
            Err(WireError::UnexpectedEof { .. })
        ));
        // Trailing garbage.
        let mut bad = buf.clone();
        bad.push(0);
        assert!(matches!(
            TraceEvent::decode_wire(&bad),
            Err(WireError::TrailingBytes { remaining: 1 })
        ));
    }

    #[test]
    fn errors_render() {
        let e = IngestError::UnknownRegion {
            run: RunKey(3),
            function: "main".into(),
            region: RegionRef::new("loop", 10),
        };
        assert!(e.to_string().contains("loop"));
        assert!(e.to_string().contains("runkey3"));
    }
}
