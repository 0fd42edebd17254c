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
/// misreading bytes (the WAL and snapshot formats both embed it).
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
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
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
                wire::put_u8(buf, 0);
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
                wire::put_u8(buf, 1);
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
                wire::put_u8(buf, 2);
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
                wire::put_u8(buf, 3);
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
                wire::put_u8(buf, 4);
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
                wire::put_u8(buf, 5);
                wire::put_u64(buf, run.0);
            }
        }
    }

    /// Decode one event from its wire encoding. The whole of `bytes` must
    /// be consumed; partial or trailing input is a [`WireError`].
    pub fn decode_wire(bytes: &[u8]) -> Result<TraceEvent, WireError> {
        let mut r = Reader::new(bytes);
        let version = r.get_u8("wire version")?;
        if version != WIRE_VERSION {
            return Err(WireError::UnsupportedVersion(version));
        }
        let tag = r.get_u8("event tag")?;
        let event = match tag {
            0 => TraceEvent::RunStarted {
                run: RunKey(r.get_u64("run key")?),
                version: VersionTag(r.get_u64("version tag")?),
                program: r.get_str("program")?,
                compiled_at: DateTime(r.get_i64("compiled_at")?),
                source: r.get_str("source")?,
                start: DateTime(r.get_i64("start")?),
                no_pe: r.get_u32("no_pe")?,
                clockspeed: r.get_u32("clockspeed")?,
            },
            1 => {
                let run = RunKey(r.get_u64("run key")?);
                let function = r.get_str("function")?;
                let name = r.get_str("region name")?;
                let parent = match r.get_u8("parent flag")? {
                    0 => None,
                    1 => Some(RegionRef {
                        name: r.get_str("parent name")?,
                        first_line: r.get_u32("parent line")?,
                    }),
                    code => {
                        return Err(WireError::BadEnum {
                            what: "parent flag",
                            code,
                        })
                    }
                };
                let kind_code = r.get_u8("region kind")?;
                let kind = wire::region_kind_from_code(kind_code).ok_or(WireError::BadEnum {
                    what: "region kind",
                    code: kind_code,
                })?;
                TraceEvent::RegionEntered {
                    run,
                    function,
                    region: RegionDef {
                        name,
                        parent,
                        kind,
                        first_line: r.get_u32("first_line")?,
                        last_line: r.get_u32("last_line")?,
                    },
                }
            }
            2 => TraceEvent::RegionExited {
                run: RunKey(r.get_u64("run key")?),
                function: r.get_str("function")?,
                region: RegionRef {
                    name: r.get_str("region name")?,
                    first_line: r.get_u32("region line")?,
                },
                excl: r.get_f64("excl")?,
                incl: r.get_f64("incl")?,
                ovhd: r.get_f64("ovhd")?,
            },
            3 => {
                let run = RunKey(r.get_u64("run key")?);
                let function = r.get_str("function")?;
                let region = RegionRef {
                    name: r.get_str("region name")?,
                    first_line: r.get_u32("region line")?,
                };
                let ty_code = r.get_u8("timing type")?;
                let ty = TimingType::from_code(ty_code).ok_or(WireError::BadEnum {
                    what: "timing type",
                    code: ty_code,
                })?;
                TraceEvent::TypedSample {
                    run,
                    function,
                    region,
                    ty,
                    time: r.get_f64("time")?,
                }
            }
            4 => TraceEvent::CallSiteStat {
                run: RunKey(r.get_u64("run key")?),
                caller: r.get_str("caller")?,
                callee: r.get_str("callee")?,
                site: RegionRef {
                    name: r.get_str("site name")?,
                    first_line: r.get_u32("site line")?,
                },
                stats: CallStats {
                    min_count: r.get_f64("min_count")?,
                    max_count: r.get_f64("max_count")?,
                    mean_count: r.get_f64("mean_count")?,
                    stdev_count: r.get_f64("stdev_count")?,
                    min_count_pe: r.get_u32("min_count_pe")?,
                    max_count_pe: r.get_u32("max_count_pe")?,
                    min_time: r.get_f64("min_time")?,
                    max_time: r.get_f64("max_time")?,
                    mean_time: r.get_f64("mean_time")?,
                    stdev_time: r.get_f64("stdev_time")?,
                    min_time_pe: r.get_u32("min_time_pe")?,
                    max_time_pe: r.get_u32("max_time_pe")?,
                },
            },
            5 => TraceEvent::RunFinished {
                run: RunKey(r.get_u64("run key")?),
            },
            code => {
                return Err(WireError::BadEnum {
                    what: "event tag",
                    code,
                })
            }
        };
        r.finish()?;
        Ok(event)
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
    Wal {
        /// The WAL operation that failed (append, the fsync riding on
        /// it, or the repair of an earlier torn append).
        op: crate::wal::WalOp,
        /// The OS error category ([`std::io::ErrorKind`] — the error
        /// itself is not `Clone`, its classification is).
        kind: std::io::ErrorKind,
        /// Rendered description of the underlying error.
        detail: String,
    },
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
            IngestError::Wal { op, kind, detail } => {
                write!(f, "write-ahead log {op} failed ({kind:?}): {detail}")
            }
        }
    }
}

impl std::error::Error for IngestError {}

impl From<crate::wal::WalIoError> for IngestError {
    fn from(e: crate::wal::WalIoError) -> Self {
        IngestError::Wal {
            op: e.op,
            kind: e.source.kind(),
            detail: e.source.to_string(),
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
