//! Point-in-time store snapshots.
//!
//! A snapshot serializes the full [`StoreBuilder`] state — the store's
//! primary arenas plus the producer-key maps ([`RunKey`]→run,
//! [`VersionTag`]→version) — and the [`crate::IncrementalAnalyzer`]'s
//! finished-run set. Only the arenas are written; backlink vectors and the
//! store's positional indexes are **reconstructed by replaying the public
//! `Store::add_*` builders in arena order**, which reproduces ids,
//! backlink orders, and the order of duplicate records exactly. A
//! recovered store is therefore arena-identical to the snapshotted one,
//! which is what makes recovered analysis reports bit-identical (down to
//! `ContextDesc` ids) rather than merely equivalent.
//!
//! ## File format
//!
//! ```text
//! ┌───────┬────────────┬────────────┬─────────────┬─────────┐
//! │ magic │ version u8 │ len u32 LE │ crc32 u32 LE│ payload │
//! │ KJSN  │    = 1     │ of payload │ of payload  │         │
//! └───────┴────────────┴────────────┴─────────────┴─────────┘
//! ```
//!
//! The whole payload is covered by one checksum: a snapshot is either
//! loaded in full or rejected as corrupt — unlike the WAL there is no
//! meaningful prefix to fall back to, so corruption surfaces as a typed
//! [`SnapshotError::Corrupt`] for the recovery layer to report.
//!
//! Writes are atomic: payload to `snapshot.tmp`, fsync, rename over
//! `snapshot.bin`, fsync the directory. A crash mid-write leaves either
//! the old snapshot or the new one, never a torn file.
//!
//! Each step of that protocol, and the read, runs through the fault seam
//! ([`faults::Faults`]), which returns a [`faults::IoFailure`] tagged with
//! the step's [`faults::Op`] (`SnapshotCreate`, `SnapshotWrite`,
//! `SnapshotSync`, `SnapshotRename`, `SnapshotDirSync`, `SnapshotRead`):
//! the seam's return type attributes every I/O result to exactly one op.

use crate::builder::StoreBuilder;
use crate::event::{RunKey, VersionTag};
use crate::wire::{self, Reader, WireError};
use faults::{Faults, IoFailure, Op};
use perfdata::{
    CallTiming, DateTime, FunctionId, RegionId, Store, TestRunId, TimingType, VersionId,
};
use std::collections::HashMap;
use std::fs::File;
use std::io;
use std::path::Path;

/// Magic prefix of a snapshot file.
pub const SNAPSHOT_MAGIC: &[u8; 4] = b"KJSN";
/// Snapshot format version.
pub const SNAPSHOT_VERSION: u8 = 1;

/// Why a snapshot could not be loaded.
#[derive(Debug)]
pub enum SnapshotError {
    /// Filesystem failure.
    Io(IoFailure),
    /// The file exists but is not a loadable snapshot (bad magic, bad
    /// checksum, truncated, or internally inconsistent ids).
    Corrupt(String),
}

impl std::fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnapshotError::Io(e) => write!(f, "snapshot I/O: {e}"),
            SnapshotError::Corrupt(why) => write!(f, "snapshot corrupt: {why}"),
        }
    }
}

impl std::error::Error for SnapshotError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SnapshotError::Io(failure) => Some(failure),
            SnapshotError::Corrupt(_) => None,
        }
    }
}

impl From<WireError> for SnapshotError {
    fn from(e: WireError) -> Self {
        SnapshotError::Corrupt(e.to_string())
    }
}

/// Everything a snapshot restores.
#[derive(Debug)]
pub struct SnapshotData {
    /// The reconstructed builder (store + key maps + event counter).
    pub builder: StoreBuilder,
    /// Runs whose producer had declared them finished.
    pub finished: Vec<TestRunId>,
    /// Lifetime count of rejected events at snapshot time.
    pub events_rejected: u64,
    /// Lifetime count of applied events at snapshot time (also available
    /// as `builder.events_applied()`; kept separate for reporting).
    pub events_applied: u64,
    /// The checkpoint epoch this snapshot truncated the WAL to: a log
    /// whose header carries an *older* epoch is entirely covered by this
    /// snapshot (the crash hit the rename→truncate window) and must be
    /// skipped, not replayed.
    pub wal_epoch: u64,
}

// ------------------------------------------------------------- encode ----

fn encode_payload(
    builder: &StoreBuilder,
    finished: &[TestRunId],
    events_rejected: u64,
    wal_epoch: u64,
) -> Vec<u8> {
    let store = builder.store();
    let mut buf = Vec::with_capacity(4096);
    wire::put_u64(&mut buf, builder.events_applied());
    wire::put_u64(&mut buf, events_rejected);
    wire::put_u64(&mut buf, wal_epoch);

    wire::put_u32(&mut buf, store.programs.len() as u32);
    for p in &store.programs {
        wire::put_str(&mut buf, &p.name);
    }
    wire::put_u32(&mut buf, store.versions.len() as u32);
    for v in &store.versions {
        wire::put_u32(&mut buf, v.program.0);
        wire::put_i64(&mut buf, v.compilation.micros());
        wire::put_str(&mut buf, &store.sources[v.code.index()].text);
    }
    wire::put_u32(&mut buf, store.runs.len() as u32);
    for r in &store.runs {
        wire::put_u32(&mut buf, r.version.0);
        wire::put_i64(&mut buf, r.start.micros());
        wire::put_u32(&mut buf, r.no_pe);
        wire::put_u32(&mut buf, r.clockspeed);
    }
    wire::put_u32(&mut buf, store.functions.len() as u32);
    for f in &store.functions {
        wire::put_u32(&mut buf, f.version.0);
        wire::put_str(&mut buf, &f.name);
    }
    wire::put_u32(&mut buf, store.regions.len() as u32);
    for reg in &store.regions {
        wire::put_u32(&mut buf, reg.function.0);
        match reg.parent {
            None => wire::put_u8(&mut buf, 0),
            Some(p) => {
                wire::put_u8(&mut buf, 1);
                wire::put_u32(&mut buf, p.0);
            }
        }
        wire::put_u8(&mut buf, wire::region_kind_code(reg.kind));
        wire::put_str(&mut buf, &reg.name);
        wire::put_u32(&mut buf, reg.first_line);
        wire::put_u32(&mut buf, reg.last_line);
    }
    wire::put_u32(&mut buf, store.total_timings.len() as u32);
    for t in &store.total_timings {
        wire::put_u32(&mut buf, t.region.0);
        wire::put_u32(&mut buf, t.run.0);
        wire::put_f64(&mut buf, t.excl);
        wire::put_f64(&mut buf, t.incl);
        wire::put_f64(&mut buf, t.ovhd);
    }
    wire::put_u32(&mut buf, store.typed_timings.len() as u32);
    for t in &store.typed_timings {
        wire::put_u32(&mut buf, t.region.0);
        wire::put_u32(&mut buf, t.run.0);
        wire::put_u8(&mut buf, t.ty.code());
        wire::put_f64(&mut buf, t.time);
    }
    wire::put_u32(&mut buf, store.calls.len() as u32);
    for c in &store.calls {
        wire::put_u32(&mut buf, c.caller.0);
        wire::put_u32(&mut buf, c.callee.0);
        wire::put_u32(&mut buf, c.calling_reg.0);
    }
    wire::put_u32(&mut buf, store.call_timings.len() as u32);
    for s in &store.call_timings {
        wire::put_u32(&mut buf, s.call.0);
        wire::put_u32(&mut buf, s.run.0);
        wire::put_f64(&mut buf, s.min_count);
        wire::put_f64(&mut buf, s.max_count);
        wire::put_f64(&mut buf, s.mean_count);
        wire::put_f64(&mut buf, s.stdev_count);
        wire::put_u32(&mut buf, s.min_count_pe);
        wire::put_u32(&mut buf, s.max_count_pe);
        wire::put_f64(&mut buf, s.min_time);
        wire::put_f64(&mut buf, s.max_time);
        wire::put_f64(&mut buf, s.mean_time);
        wire::put_f64(&mut buf, s.stdev_time);
        wire::put_u32(&mut buf, s.min_time_pe);
        wire::put_u32(&mut buf, s.max_time_pe);
    }

    // Key maps in store id order, for byte-stable output.
    let mut tags: Vec<(VersionTag, VersionId)> = builder.version_tags().collect();
    tags.sort_by_key(|(_, v)| *v);
    wire::put_u32(&mut buf, tags.len() as u32);
    for (tag, vid) in tags {
        wire::put_u64(&mut buf, tag.0);
        wire::put_u32(&mut buf, vid.0);
    }
    wire::put_u32(&mut buf, store.runs.len() as u32);
    for (key, rid, _) in builder.runs() {
        wire::put_u64(&mut buf, key.0);
        wire::put_u32(&mut buf, rid.0);
    }
    let mut finished: Vec<TestRunId> = finished.to_vec();
    finished.sort();
    wire::put_u32(&mut buf, finished.len() as u32);
    for r in finished {
        wire::put_u32(&mut buf, r.0);
    }
    buf
}

/// Serialize a complete snapshot file image (header + checksummed
/// payload) of `builder` + `finished`. Pure in-memory encoding: callers
/// hold whatever lock guards the builder only for this call and do the
/// file I/O ([`write_snapshot_bytes`]) after releasing it.
pub fn encode_snapshot(
    builder: &StoreBuilder,
    finished: &[TestRunId],
    events_rejected: u64,
    wal_epoch: u64,
) -> Vec<u8> {
    let payload = encode_payload(builder, finished, events_rejected, wal_epoch);
    let mut file_bytes = Vec::with_capacity(payload.len() + 13);
    file_bytes.extend_from_slice(SNAPSHOT_MAGIC);
    wire::put_u8(&mut file_bytes, SNAPSHOT_VERSION);
    wire::put_u32(&mut file_bytes, payload.len() as u32);
    wire::put_u32(&mut file_bytes, wire::crc32(&payload));
    file_bytes.extend_from_slice(&payload);
    file_bytes
}

/// Atomically persist an encoded snapshot image to `path` (write to a
/// temp file, fsync, rename over, fsync the directory), each step through
/// `faults`. A failure before [`Op::SnapshotRename`] leaves the previous
/// snapshot untouched; recovery falls back to it plus the longer WAL tail.
pub fn write_snapshot_bytes(
    path: &Path,
    file_bytes: &[u8],
    faults: &Faults,
) -> Result<(), IoFailure> {
    let tmp = path.with_extension("tmp");
    {
        let mut f = faults.step(Op::SnapshotCreate, || File::create(&tmp))?;
        faults.write_all(Op::SnapshotWrite, &mut f, file_bytes)?;
        faults.step(Op::SnapshotSync, || f.sync_all())?;
    }
    faults.rename(Op::SnapshotRename, &tmp, path)?;
    // Persist the rename itself. Failing to *open* the directory is
    // tolerated (not every filesystem allows it — there is nothing to
    // report), but once open, a failing sync is a real durability signal
    // and surfaces typed instead of being swallowed. It is the one step
    // after the commit point: the new snapshot is already live.
    if let Some(dir) = path.parent() {
        if let Ok(d) = File::open(dir) {
            faults.step(Op::SnapshotDirSync, || d.sync_all())?;
        }
    }
    Ok(())
}

// ------------------------------------------------------------- decode ----

/// A bounds-checked arena id read.
fn get_id(r: &mut Reader<'_>, what: &'static str, limit: usize) -> Result<u32, SnapshotError> {
    let id = r.get_u32(what)?;
    if id as usize >= limit {
        return Err(SnapshotError::Corrupt(format!(
            "{what} {id} out of range (< {limit})"
        )));
    }
    Ok(id)
}

/// The version of a (bounds-checked) region id.
fn region_version(store: &Store, region: u32) -> VersionId {
    store.functions[store.regions[region as usize].function.index()].version
}

/// A timing's owner and run must share a version: the store indexes the
/// record by its owner's place in that version.
fn same_version(store: &Store, owner: VersionId, run: u32) -> Result<(), SnapshotError> {
    let of_run = store.runs[run as usize].version;
    if owner != of_run {
        return Err(SnapshotError::Corrupt(format!(
            "a record of {owner} in run {run} of {of_run}"
        )));
    }
    Ok(())
}

fn decode_payload(payload: &[u8]) -> Result<SnapshotData, SnapshotError> {
    let mut r = Reader::new(payload);
    let events_applied = r.get_u64("events_applied")?;
    let events_rejected = r.get_u64("events_rejected")?;
    let wal_epoch = r.get_u64("wal_epoch")?;

    let mut store = Store::new();
    let n_programs = r.get_u32("program count")?;
    for _ in 0..n_programs {
        let name = r.get_str("program name")?;
        store.add_program(name);
    }
    let n_versions = r.get_u32("version count")?;
    for _ in 0..n_versions {
        let program = get_id(&mut r, "version program id", store.programs.len())?;
        let compilation = DateTime(r.get_i64("compilation")?);
        let source = r.get_str("source")?;
        store.add_version(perfdata::ProgramId(program), compilation, source);
    }
    let n_runs = r.get_u32("run count")?;
    for _ in 0..n_runs {
        let version = get_id(&mut r, "run version id", store.versions.len())?;
        let start = DateTime(r.get_i64("run start")?);
        let no_pe = r.get_u32("no_pe")?;
        let clockspeed = r.get_u32("clockspeed")?;
        store.add_run(VersionId(version), start, no_pe, clockspeed);
    }
    let n_functions = r.get_u32("function count")?;
    for _ in 0..n_functions {
        let version = get_id(&mut r, "function version id", store.versions.len())?;
        let name = r.get_str("function name")?;
        store.add_function(VersionId(version), name);
    }
    let n_regions = r.get_u32("region count")?;
    for _ in 0..n_regions {
        let function = get_id(&mut r, "region function id", store.functions.len())?;
        let parent = match r.get_u8("parent flag")? {
            0 => None,
            1 => Some(RegionId(get_id(
                &mut r,
                "region parent id",
                store.regions.len(),
            )?)),
            code => {
                return Err(SnapshotError::Corrupt(format!("parent flag {code}")));
            }
        };
        let kind_code = r.get_u8("region kind")?;
        let kind = wire::region_kind_from_code(kind_code)
            .ok_or_else(|| SnapshotError::Corrupt(format!("region kind {kind_code}")))?;
        let name = r.get_str("region name")?;
        let first = r.get_u32("first_line")?;
        let last = r.get_u32("last_line")?;
        store.add_region(FunctionId(function), parent, kind, name, (first, last));
    }
    let n_tot = r.get_u32("total timing count")?;
    for _ in 0..n_tot {
        let region = get_id(&mut r, "timing region id", store.regions.len())?;
        let run = get_id(&mut r, "timing run id", store.runs.len())?;
        let excl = r.get_f64("excl")?;
        let incl = r.get_f64("incl")?;
        let ovhd = r.get_f64("ovhd")?;
        same_version(&store, region_version(&store, region), run)?;
        store.add_total_timing(RegionId(region), TestRunId(run), excl, incl, ovhd);
    }
    let n_typed = r.get_u32("typed timing count")?;
    for _ in 0..n_typed {
        let region = get_id(&mut r, "typed region id", store.regions.len())?;
        let run = get_id(&mut r, "typed run id", store.runs.len())?;
        let ty_code = r.get_u8("timing type")?;
        let ty = TimingType::from_code(ty_code)
            .ok_or_else(|| SnapshotError::Corrupt(format!("timing type {ty_code}")))?;
        let time = r.get_f64("typed time")?;
        same_version(&store, region_version(&store, region), run)?;
        store.add_typed_timing(RegionId(region), TestRunId(run), ty, time);
    }
    let n_calls = r.get_u32("call count")?;
    for _ in 0..n_calls {
        let caller = get_id(&mut r, "caller id", store.functions.len())?;
        let callee = get_id(&mut r, "callee id", store.functions.len())?;
        let site = get_id(&mut r, "call site region id", store.regions.len())?;
        store.add_call(FunctionId(caller), FunctionId(callee), RegionId(site));
    }
    let n_ct = r.get_u32("call timing count")?;
    for _ in 0..n_ct {
        let call = get_id(&mut r, "call timing call id", store.calls.len())?;
        let run = get_id(&mut r, "call timing run id", store.runs.len())?;
        let caller = store.calls[call as usize].caller;
        same_version(&store, store.functions[caller.index()].version, run)?;
        let ct = CallTiming {
            call: perfdata::CallId(call),
            run: TestRunId(run),
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
        };
        store.add_call_timing(ct);
    }

    let n_tags = r.get_u32("version tag count")?;
    let mut versions = HashMap::with_capacity(n_tags as usize);
    for _ in 0..n_tags {
        let tag = VersionTag(r.get_u64("version tag")?);
        let vid = get_id(&mut r, "tagged version id", store.versions.len())?;
        versions.insert(tag, VersionId(vid));
    }
    let n_keys = r.get_u32("run key count")?;
    let mut runs = HashMap::with_capacity(n_keys as usize);
    let mut keyed = vec![false; store.runs.len()];
    for _ in 0..n_keys {
        let key = RunKey(r.get_u64("run key")?);
        let rid = get_id(&mut r, "keyed run id", store.runs.len())?;
        if std::mem::replace(&mut keyed[rid as usize], true) {
            return Err(SnapshotError::Corrupt(format!("run {rid} keyed twice")));
        }
        runs.insert(key, TestRunId(rid));
    }
    if runs.len() != store.runs.len() {
        return Err(SnapshotError::Corrupt(format!(
            "{} run keys for {} runs",
            runs.len(),
            store.runs.len()
        )));
    }
    let n_finished = r.get_u32("finished count")?;
    let mut finished = Vec::with_capacity(n_finished as usize);
    for _ in 0..n_finished {
        finished.push(TestRunId(get_id(
            &mut r,
            "finished run id",
            store.runs.len(),
        )?));
    }
    r.finish()?;

    Ok(SnapshotData {
        builder: StoreBuilder::from_parts(store, versions, runs, events_applied),
        finished,
        events_rejected,
        events_applied,
        wal_epoch,
    })
}

/// Load the snapshot at `path`. `Ok(None)` when the file does not exist
/// (a fresh session); [`SnapshotError::Corrupt`] when it exists but cannot
/// be trusted.
pub fn read_snapshot(path: &Path) -> Result<Option<SnapshotData>, SnapshotError> {
    read_snapshot_with(path, &Faults::none())
}

/// [`read_snapshot`] through a fault seam (recovery under chaos tests).
pub fn read_snapshot_with(
    path: &Path,
    faults: &Faults,
) -> Result<Option<SnapshotData>, SnapshotError> {
    let read = faults.step(Op::SnapshotRead, || match std::fs::read(path) {
        Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(None),
        read => read.map(Some),
    });
    let Some(bytes) = read.map_err(SnapshotError::Io)? else {
        return Ok(None);
    };
    if bytes.len() < 13 {
        return Err(SnapshotError::Corrupt(format!(
            "file too short ({} bytes)",
            bytes.len()
        )));
    }
    if &bytes[..4] != SNAPSHOT_MAGIC {
        return Err(SnapshotError::Corrupt("bad magic".into()));
    }
    let version = bytes[4];
    if version != SNAPSHOT_VERSION {
        return Err(SnapshotError::Corrupt(format!(
            "unsupported snapshot version {version}"
        )));
    }
    let len = u32::from_le_bytes(bytes[5..9].try_into().unwrap()) as usize;
    let crc = u32::from_le_bytes(bytes[9..13].try_into().unwrap());
    let payload = bytes
        .get(13..13 + len)
        .ok_or_else(|| SnapshotError::Corrupt("truncated payload".into()))?;
    if wire::crc32(payload) != crc {
        return Err(SnapshotError::Corrupt("payload checksum mismatch".into()));
    }
    decode_payload(payload).map(Some)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::StoreDelta;
    use crate::event::{RegionDef, RegionRef, TraceEvent};
    use perfdata::RegionKind;
    use std::path::PathBuf;

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("kojak-snap-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir.join("snapshot.bin")
    }

    fn sample_builder() -> StoreBuilder {
        let mut b = StoreBuilder::new();
        let mut d = StoreDelta::new();
        for (key, no_pe) in [(7u64, 2u32), (9, 8)] {
            b.apply(
                &TraceEvent::RunStarted {
                    run: RunKey(key),
                    version: VersionTag(55),
                    program: "app".into(),
                    compiled_at: DateTime::from_secs(10),
                    source: "program app".into(),
                    start: DateTime::from_secs(20 + key as i64),
                    no_pe,
                    clockspeed: 450,
                },
                &mut d,
            )
            .unwrap();
        }
        b.apply(
            &TraceEvent::RegionEntered {
                run: RunKey(7),
                function: "main".into(),
                region: RegionDef {
                    name: "main".into(),
                    parent: None,
                    kind: RegionKind::Subprogram,
                    first_line: 1,
                    last_line: 90,
                },
            },
            &mut d,
        )
        .unwrap();
        b.apply(
            &TraceEvent::RegionExited {
                run: RunKey(7),
                function: "main".into(),
                region: RegionRef::new("main", 1),
                excl: 1.0,
                incl: 10.0,
                ovhd: 0.5,
            },
            &mut d,
        )
        .unwrap();
        b.apply(
            &TraceEvent::TypedSample {
                run: RunKey(9),
                function: "main".into(),
                region: RegionRef::new("main", 1),
                ty: TimingType::Barrier,
                time: 0.25,
            },
            &mut d,
        )
        .unwrap();
        b
    }

    #[test]
    fn snapshot_roundtrips_builder_state() {
        let path = tmp("roundtrip");
        let builder = sample_builder();
        let finished = vec![TestRunId(1)];
        write_snapshot_bytes(
            &path,
            &encode_snapshot(&builder, &finished, 3, 5),
            &Faults::none(),
        )
        .unwrap();
        let data = read_snapshot(&path).unwrap().expect("snapshot present");
        assert_eq!(data.builder.store(), builder.store());
        assert_eq!(data.events_applied, builder.events_applied());
        assert_eq!(data.events_rejected, 3);
        assert_eq!(data.wal_epoch, 5);
        assert_eq!(data.finished, finished);
        // Key maps round-trip.
        let mut orig: Vec<_> = builder.runs().collect();
        let mut back: Vec<_> = data.builder.runs().collect();
        orig.sort();
        back.sort();
        assert_eq!(orig, back);
        assert_eq!(
            data.builder.version_id(VersionTag(55)),
            builder.version_id(VersionTag(55))
        );
        let _ = std::fs::remove_dir_all(path.parent().unwrap());
    }

    /// `payload` with its one occurrence of `from` replaced by `to`.
    fn patched(payload: &[u8], from: &[u8], to: &[u8]) -> Vec<u8> {
        let at: Vec<usize> = (0..=payload.len() - from.len())
            .filter(|&i| &payload[i..i + from.len()] == from)
            .collect();
        assert_eq!(at.len(), 1, "pattern must occur once");
        let mut out = payload.to_vec();
        out[at[0]..at[0] + to.len()].copy_from_slice(to);
        out
    }

    #[test]
    fn a_timing_across_versions_or_a_run_keyed_twice_is_corrupt() {
        let mut b = sample_builder();
        let mut d = StoreDelta::new();
        b.apply(
            &TraceEvent::RunStarted {
                run: RunKey(11),
                version: VersionTag(56),
                program: "app".into(),
                compiled_at: DateTime::from_secs(11),
                source: "program app".into(),
                start: DateTime::from_secs(40),
                no_pe: 4,
                clockspeed: 450,
            },
            &mut d,
        )
        .unwrap();
        let payload = encode_payload(&b, &[], 0, 0);
        assert!(decode_payload(&payload).is_ok());
        let corrupt = |bytes: &[u8]| match decode_payload(bytes) {
            Err(SnapshotError::Corrupt(why)) => why,
            other => panic!("expected a corrupt snapshot, got {:?}", other.map(|_| ())),
        };

        // `main`'s total timing in run 0, moved to run 2 of the other
        // version: the store has no slot for it there.
        let timing = |run: u32| {
            let mut t = Vec::new();
            for word in [0, run] {
                t.extend_from_slice(&u32::to_le_bytes(word));
            }
            for value in [1.0, 10.0, 0.5] {
                t.extend_from_slice(&f64::to_le_bytes(value));
            }
            t
        };
        let why = corrupt(&patched(&payload, &timing(0), &timing(2)));
        assert!(why.contains("ver0") && why.contains("ver1"), "{why}");

        // Key 9 names run 0, which key 7 already names; run 1 has none.
        let key = |run: u32| [u64::to_le_bytes(9).as_slice(), &u32::to_le_bytes(run)].concat();
        let why = corrupt(&patched(&payload, &key(1), &key(0)));
        assert!(why.contains("keyed twice"), "{why}");
    }

    #[test]
    fn missing_snapshot_is_none() {
        let path = tmp("missing");
        assert!(read_snapshot(&path.with_file_name("none.bin"))
            .unwrap()
            .is_none());
        let _ = std::fs::remove_dir_all(path.parent().unwrap());
    }

    #[test]
    fn corruption_is_typed_not_a_panic() {
        let path = tmp("corrupt");
        let builder = sample_builder();
        write_snapshot_bytes(
            &path,
            &encode_snapshot(&builder, &[], 0, 0),
            &Faults::none(),
        )
        .unwrap();
        let good = std::fs::read(&path).unwrap();

        // Flip one payload byte: checksum catches it.
        let mut bad = good.clone();
        let last = bad.len() - 1;
        bad[last] ^= 0x40;
        std::fs::write(&path, &bad).unwrap();
        assert!(matches!(
            read_snapshot(&path),
            Err(SnapshotError::Corrupt(_))
        ));

        // Truncate mid-payload.
        std::fs::write(&path, &good[..good.len() / 2]).unwrap();
        assert!(matches!(
            read_snapshot(&path),
            Err(SnapshotError::Corrupt(_))
        ));

        // Bad magic.
        let mut bad = good.clone();
        bad[0] = b'X';
        std::fs::write(&path, &bad).unwrap();
        assert!(matches!(
            read_snapshot(&path),
            Err(SnapshotError::Corrupt(_))
        ));

        // Future format version.
        let mut bad = good;
        bad[4] = 9;
        std::fs::write(&path, &bad).unwrap();
        assert!(matches!(
            read_snapshot(&path),
            Err(SnapshotError::Corrupt(_))
        ));
        let _ = std::fs::remove_dir_all(path.parent().unwrap());
    }
}
