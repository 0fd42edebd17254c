//! Batch frames: a run of events with each name written once.
//!
//! One codec carries events in bulk — a `kojak-net` event batch and a
//! frame of the write-ahead log are the same bytes, so a durable shard
//! appends what its producer encoded without encoding it again
//! ([`FramedBatch`], `WalWriter::append_frame`):
//!
//! ```text
//! ┌────────┬────────┬──────────────────────────────────────────────────────────────────┐
//! │len: u32│crc: u32│ payload                                                          │
//! └────────┴────────┴──────────────────────────────────────────────────────────────────┘
//!   payload: tag u8 = 6 │ version u8 = 1 │ first_seq u64 │ events u32 │ record_bytes u32
//!            │ records  (record_bytes bytes, `events` records)
//!            │ runs u32  │ run key u64 × runs
//!            │ names u32 │ (len u32 │ UTF-8) × names
//! ```
//!
//! A record is the event's wire tag (see [`TraceEvent::encode_wire`])
//! followed by its fields in the same order, except that the run key is
//! an index into the run table and every string — function, region,
//! parent, caller, callee, site, program, source — an index into the
//! name table, each a LEB128 varint ([`wire::put_varint`]): a
//! `TypedSample` is 17 bytes where its `encode_wire` form is 31 plus its
//! two names. The tables follow the records so that an encoder writes
//! each event straight into the frame as it arrives and appends the
//! tables once the batch is complete; the decoder reads them first (the
//! record section's length is in the header). `first_seq` is the
//! producer's sequence number of the first event; the log ignores it and
//! writes 0 in the frames it encodes itself.
//!
//! The tag byte is 6 — the net's message kind of a batch, and distinct
//! from [`crate::WIRE_VERSION`], the first byte of the log's earlier
//! one-event frames, which are still read but no longer written.

use crate::event::{set_str, RunKey, TraceEvent};
use crate::wire::{self, Reader, WireError, FRAME_HEADER_LEN};
use perfdata::TimingType;
use std::collections::hash_map::RandomState;
use std::collections::HashMap;
use std::hash::BuildHasher;

/// First payload byte of a batch frame: the net's message kind of an
/// event batch, and what tells a log's batch frame from an event frame.
pub const BATCH_TAG: u8 = 6;
/// Layout version of a batch frame, its second byte. A reader meeting a
/// newer one refuses the frame typed ([`WireError::UnsupportedVersion`]).
pub const BATCH_VERSION: u8 = 1;
/// Bytes of a batch payload before its records: tag, version, first
/// sequence number, event count, record bytes.
pub const BATCH_HEADER_LEN: usize = 1 + 1 + 8 + 4 + 4;

/// Writes batch frames: [`BatchEncoder::begin`] opens one at the end of a
/// buffer, [`BatchEncoder::push`] encodes each event straight into it,
/// [`BatchEncoder::finish`] appends the tables and checksums the frame,
/// once. The tables are kept between frames, so a warm encoder allocates
/// nothing.
#[derive(Debug, Default)]
pub struct BatchEncoder {
    /// Offset of the open frame's header; `None` between frames.
    open: Option<usize>,
    count: u32,
    runs: Vec<u64>,
    run_ids: HashMap<u64, u32>,
    /// The last run pushed and its index: a batch is mostly runs of
    /// consecutive events.
    last_run: Option<(u64, u32)>,
    /// The name section as written: `len u32 | UTF-8` per name.
    names: Vec<u8>,
    /// Start and length of each name's bytes in `names`.
    spans: Vec<(u32, u32)>,
    /// Keys the names' hashes, so that names crafted to collide — an
    /// encoder also writes what peers sent — cannot be chosen ahead.
    keys: RandomState,
    /// Each name's hash.
    hashes: Vec<u64>,
    /// The names by hash, open-addressed with linear probing: a slot
    /// holds a name's index + 1, or 0. At least twice as long as the
    /// table, a power of two; emptied, not shrunk, between frames.
    slots: Vec<u32>,
    /// A direct-mapped memo of names met in the open frame: slot
    /// [`memo_slot`] of a name holds the index + 1 of the last name that
    /// mapped there, or 0. A frame names few names many times, mostly
    /// the one just named, so a repeat costs one comparison and no hash;
    /// a miss (by chance or by design) only costs the hash.
    memo: [u32; MEMO_SLOTS],
}

/// Slots of [`BatchEncoder`]'s name memo.
const MEMO_SLOTS: usize = 32;

/// A name's memo slot, from its length and its two end bytes.
fn memo_slot(name: &[u8]) -> usize {
    let (first, last) = match name {
        [] => (0, 0),
        [first, .., last] => (*first, *last),
        [only] => (*only, *only),
    };
    (name.len() ^ usize::from(first) ^ usize::from(last) << 3) % MEMO_SLOTS
}

impl BatchEncoder {
    /// A fresh encoder (its tables grow on first use).
    pub fn new() -> BatchEncoder {
        BatchEncoder::default()
    }

    /// Open a frame at the end of `buf` whose first event has sequence
    /// number `first_seq`.
    ///
    /// # Panics
    ///
    /// If a frame is already open.
    pub fn begin(&mut self, buf: &mut Vec<u8>, first_seq: u64) {
        assert!(self.open.is_none(), "a batch frame is already open");
        self.open = Some(wire::begin_frame(buf));
        wire::put_u8(buf, BATCH_TAG);
        wire::put_u8(buf, BATCH_VERSION);
        wire::put_u64(buf, first_seq);
        wire::put_u32(buf, 0); // event count, patched by `finish`
        wire::put_u32(buf, 0); // record bytes, patched by `finish`
    }

    /// Events pushed into the open frame.
    pub fn len(&self) -> usize {
        self.count as usize
    }

    /// True when the open frame holds no event (or none is open).
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Append `event`'s record to the open frame in `buf`.
    pub fn push(&mut self, buf: &mut Vec<u8>, event: &TraceEvent) {
        debug_assert!(self.open.is_some(), "push outside a batch frame");
        self.count += 1;
        wire::put_u8(buf, event.tag());
        match event {
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
                self.put_run(buf, *run);
                wire::put_u64(buf, version.0);
                self.put_name(buf, program);
                wire::put_i64(buf, compiled_at.micros());
                self.put_name(buf, source);
                wire::put_i64(buf, start.micros());
                wire::put_u32(buf, *no_pe);
                wire::put_u32(buf, *clockspeed);
            }
            TraceEvent::RegionEntered {
                run,
                function,
                region,
            } => {
                self.put_run(buf, *run);
                self.put_name(buf, function);
                self.put_name(buf, &region.name);
                match &region.parent {
                    None => wire::put_u8(buf, 0),
                    Some(p) => {
                        wire::put_u8(buf, 1);
                        self.put_name(buf, &p.name);
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
                self.put_run(buf, *run);
                self.put_name(buf, function);
                self.put_name(buf, &region.name);
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
                self.put_run(buf, *run);
                self.put_name(buf, function);
                self.put_name(buf, &region.name);
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
                self.put_run(buf, *run);
                self.put_name(buf, caller);
                self.put_name(buf, callee);
                self.put_name(buf, &site.name);
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
            TraceEvent::RunFinished { run } => self.put_run(buf, *run),
        }
    }

    /// Close the open frame: append the run and name tables, patch the
    /// header, checksum the payload. The tables are then emptied for the
    /// next frame.
    ///
    /// # Panics
    ///
    /// If no frame is open.
    pub fn finish(&mut self, buf: &mut Vec<u8>) {
        let header = self.open.take().expect("no batch frame is open");
        let payload = header + FRAME_HEADER_LEN;
        let records = u32::try_from(buf.len() - payload - BATCH_HEADER_LEN)
            .expect("a batch frame's records fit a u32 length");
        buf[payload + 10..payload + 14].copy_from_slice(&self.count.to_le_bytes());
        buf[payload + 14..payload + 18].copy_from_slice(&records.to_le_bytes());
        wire::put_u32(buf, self.runs.len() as u32);
        for run in &self.runs {
            wire::put_u64(buf, *run);
        }
        wire::put_u32(buf, self.spans.len() as u32);
        buf.extend_from_slice(&self.names);
        wire::end_frame(buf, header);
        self.count = 0;
        self.runs.clear();
        self.run_ids.clear();
        self.last_run = None;
        self.names.clear();
        self.spans.clear();
        self.hashes.clear();
        self.slots.fill(0);
        self.memo = [0; MEMO_SLOTS];
    }

    /// Append one whole frame of `events` to `buf` (begin, push each,
    /// finish).
    pub fn encode(&mut self, buf: &mut Vec<u8>, first_seq: u64, events: &[TraceEvent]) {
        self.begin(buf, first_seq);
        for event in events {
            self.push(buf, event);
        }
        self.finish(buf);
    }

    fn put_run(&mut self, buf: &mut Vec<u8>, run: RunKey) {
        let index = match self.last_run {
            Some((key, index)) if key == run.0 => index,
            _ => {
                let runs = &mut self.runs;
                let index = *self.run_ids.entry(run.0).or_insert_with(|| {
                    runs.push(run.0);
                    runs.len() as u32 - 1
                });
                self.last_run = Some((run.0, index));
                index
            }
        };
        wire::put_varint(buf, index);
    }

    /// The bytes of name `index`.
    fn name(&self, index: u32) -> &[u8] {
        let (start, len) = self.spans[index as usize];
        &self.names[start as usize..(start + len) as usize]
    }

    fn put_name(&mut self, buf: &mut Vec<u8>, name: &str) {
        let slot = memo_slot(name.as_bytes());
        let index = match self.memo[slot] {
            0 => None,
            hit => Some(hit - 1).filter(|&index| self.name(index) == name.as_bytes()),
        };
        let index = index.unwrap_or_else(|| {
            let index = self.intern(name);
            self.memo[slot] = index + 1;
            index
        });
        wire::put_varint(buf, index);
    }

    /// The index of `name` in the open frame's table, entered if new.
    fn intern(&mut self, name: &str) -> u32 {
        let bytes = name.as_bytes();
        let hash = self.keys.hash_one(bytes);
        if self.slots.len() < 2 * (self.spans.len() + 1) {
            self.grow();
        }
        let mask = self.slots.len() - 1;
        let mut at = hash as usize & mask;
        loop {
            match self.slots[at] {
                0 => break,
                slot => {
                    let index = slot - 1;
                    if self.hashes[index as usize] == hash && self.name(index) == bytes {
                        return index;
                    }
                }
            }
            at = (at + 1) & mask;
        }
        let index = self.spans.len() as u32;
        self.slots[at] = index + 1;
        self.hashes.push(hash);
        wire::put_str(&mut self.names, name);
        self.spans
            .push(((self.names.len() - bytes.len()) as u32, bytes.len() as u32));
        index
    }

    /// Double the slot table (64 slots at first) and re-enter the names.
    fn grow(&mut self) {
        let len = (self.slots.len() * 2).max(64);
        self.slots.clear();
        self.slots.resize(len, 0);
        for (index, hash) in self.hashes.iter().enumerate() {
            let mut at = *hash as usize & (len - 1);
            while self.slots[at] != 0 {
                at = (at + 1) & (len - 1);
            }
            self.slots[at] = index as u32 + 1;
        }
    }
}

/// What a batch payload's header says.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BatchHeader {
    /// The producer's sequence number of the first event (0 in a batch
    /// the log encoded).
    pub first_seq: u64,
    /// Events in the batch.
    pub count: u32,
}

/// Reads batch payloads into reused event slots: the one decoder of the
/// format, for the net server's arena and the log's frame scanner alike.
/// Each name is checked as UTF-8 once per frame, into a table of strings
/// the decoder keeps, and copied from there into every slot that names
/// it; a warm decoder over warm slots allocates nothing.
#[derive(Debug, Default)]
pub struct BatchDecoder {
    runs: Vec<u64>,
    /// Name slots; the first `name_count` hold the current frame's table.
    names: Vec<String>,
    name_count: usize,
}

impl BatchDecoder {
    /// A fresh decoder (its tables grow on first use).
    pub fn new() -> BatchDecoder {
        BatchDecoder::default()
    }

    /// Decode a batch payload — from its tag byte on, the whole of
    /// `payload` — into `events[at..]`: each slot is overwritten in place
    /// as [`TraceEvent::decode_wire_into`] does it, and slots are pushed
    /// past the end as needed. Returns the header; the batch's events are
    /// `events[at..at + count]`, and any slot past them is left as it was.
    /// On `Err` the slots from `at` on hold valid events of no meaning.
    ///
    /// No allocation is sized by a count the payload declares: a slot or
    /// a table entry is made only for a record or a name that is there.
    ///
    /// # Panics
    ///
    /// If `at > events.len()`.
    pub fn decode_into(
        &mut self,
        payload: &[u8],
        events: &mut Vec<TraceEvent>,
        at: usize,
    ) -> Result<BatchHeader, WireError> {
        assert!(at <= events.len(), "decode past the end of the slots");
        let mut r = Reader::new(payload);
        let tag = r.get_u8("batch tag")?;
        if tag != BATCH_TAG {
            return Err(WireError::BadEnum {
                what: "batch tag",
                code: tag,
            });
        }
        let version = r.get_u8("batch version")?;
        if version != BATCH_VERSION {
            return Err(WireError::UnsupportedVersion(version));
        }
        let first_seq = r.get_u64("first sequence")?;
        let count = r.get_u32("event count")?;
        let record_bytes = r.get_u32("record bytes")? as usize;
        let records = r.get_bytes(record_bytes, "records")?;
        self.read_tables(&mut r)?;
        // A record is at least two bytes (tag and run index).
        let bound = at + (count as usize).min(record_bytes / 2);
        events.reserve(bound.saturating_sub(events.len()));
        let mut r = Reader::new(records);
        for slot in at..at + count as usize {
            if slot == events.len() {
                events.push(TraceEvent::default());
            }
            self.decode_record(&mut r, &mut events[slot])?;
        }
        match r.remaining() {
            0 => Ok(BatchHeader { first_seq, count }),
            remaining => Err(WireError::CountMismatch {
                what: "records",
                remaining,
            }),
        }
    }

    /// Read the run and name tables: the rest of the payload.
    fn read_tables(&mut self, r: &mut Reader<'_>) -> Result<(), WireError> {
        let runs = r.get_u32("run count")? as usize;
        if runs > r.remaining() / 8 {
            return Err(WireError::UnexpectedEof { what: "run keys" });
        }
        let keys = r.get_bytes(runs * 8, "run keys")?;
        self.runs.clear();
        self.runs.extend(
            keys.chunks_exact(8)
                .map(|k| u64::from_le_bytes(k.try_into().expect("eight bytes"))),
        );
        let names = r.get_u32("name count")?;
        self.name_count = 0;
        for _ in 0..names {
            let name = r.get_str_ref("table name")?;
            match self.names.get_mut(self.name_count) {
                Some(slot) => set_str(slot, name),
                None => self.names.push(name.to_owned()),
            }
            self.name_count += 1;
        }
        match r.remaining() {
            0 => Ok(()),
            remaining => Err(WireError::CountMismatch {
                what: "name table",
                remaining,
            }),
        }
    }

    fn run(&self, r: &mut Reader<'_>) -> Result<RunKey, WireError> {
        let what = "run index";
        let index = r.get_varint(what)?;
        match self.runs.get(index as usize) {
            Some(&key) => Ok(RunKey(key)),
            None => Err(WireError::BadIndex {
                what,
                index,
                len: self.runs.len() as u32,
            }),
        }
    }

    fn name(&self, r: &mut Reader<'_>, what: &'static str) -> Result<&str, WireError> {
        let index = r.get_varint(what)?;
        match self.names[..self.name_count].get(index as usize) {
            Some(name) => Ok(name),
            None => Err(WireError::BadIndex {
                what,
                index,
                len: self.name_count as u32,
            }),
        }
    }

    fn decode_record(&self, r: &mut Reader<'_>, slot: &mut TraceEvent) -> Result<(), WireError> {
        let tag = r.get_u8("record tag")?;
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
                *run = self.run(r)?;
                version.0 = r.get_u64("version tag")?;
                set_str(program, self.name(r, "program index")?);
                compiled_at.0 = r.get_i64("compiled_at")?;
                set_str(source, self.name(r, "source index")?);
                start.0 = r.get_i64("start")?;
                *no_pe = r.get_u32("no_pe")?;
                *clockspeed = r.get_u32("clockspeed")?;
            }
            TraceEvent::RegionEntered {
                run,
                function,
                region,
            } => {
                *run = self.run(r)?;
                set_str(function, self.name(r, "function index")?);
                set_str(&mut region.name, self.name(r, "region index")?);
                match r.get_u8("parent flag")? {
                    0 => region.parent = None,
                    1 => {
                        let name = self.name(r, "parent index")?;
                        let first_line = r.get_u32("parent line")?;
                        match &mut region.parent {
                            Some(parent) => {
                                set_str(&mut parent.name, name);
                                parent.first_line = first_line;
                            }
                            None => region.parent = Some(crate::RegionRef::new(name, first_line)),
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
                *run = self.run(r)?;
                set_str(function, self.name(r, "function index")?);
                set_str(&mut region.name, self.name(r, "region index")?);
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
                *run = self.run(r)?;
                set_str(function, self.name(r, "function index")?);
                set_str(&mut region.name, self.name(r, "region index")?);
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
                *run = self.run(r)?;
                set_str(caller, self.name(r, "caller index")?);
                set_str(callee, self.name(r, "callee index")?);
                set_str(&mut site.name, self.name(r, "site index")?);
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
            TraceEvent::RunFinished { run } => *run = self.run(r)?,
        }
        Ok(())
    }
}

/// A batch frame as it arrived — its bytes, `len | crc32 | payload`, the
/// checksum verified — beside the events decoded from it. A durable
/// session appends the bytes to its log as they are
/// (`WalWriter::append_frame`) and applies the events: an event its
/// producer encoded is not encoded again.
#[derive(Debug, Clone, Copy)]
pub struct FramedBatch<'a> {
    frame: &'a [u8],
    events: &'a [TraceEvent],
}

impl<'a> FramedBatch<'a> {
    /// Pair a verified batch frame with the events its payload decodes
    /// to. The caller vouches for both — the log keeps the bytes, the
    /// store the events, and recovery replays the bytes — as
    /// `kojak-net`'s arena does, which decoded the one from the other
    /// ([`BatchDecoder::decode_into`]).
    pub fn new(frame: &'a [u8], events: &'a [TraceEvent]) -> FramedBatch<'a> {
        debug_assert!(
            frame.len() >= FRAME_HEADER_LEN + BATCH_HEADER_LEN
                && frame[FRAME_HEADER_LEN] == BATCH_TAG
                && frame[FRAME_HEADER_LEN + 10..FRAME_HEADER_LEN + 14]
                    == (events.len() as u32).to_le_bytes(),
            "a batch frame of another batch"
        );
        FramedBatch { frame, events }
    }

    /// The frame's bytes, header included.
    pub fn frame(&self) -> &'a [u8] {
        self.frame
    }

    /// The events the frame holds, in order.
    pub fn events(&self) -> &'a [TraceEvent] {
        self.events
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_events::every_variant;

    #[test]
    fn a_frame_roundtrips_every_variant_and_names_each_string_once() {
        let events = every_variant();
        let mut buf = vec![0xaa; 3]; // a frame need not start a buffer
        let mut encoder = BatchEncoder::new();
        encoder.encode(&mut buf, 41, &events);
        let frame = &buf[3..];
        let payload = &frame[FRAME_HEADER_LEN..];
        let len = u32::from_le_bytes(frame[..4].try_into().unwrap()) as usize;
        assert_eq!(len, payload.len());
        assert_eq!(
            u32::from_le_bytes(frame[4..8].try_into().unwrap()),
            wire::crc32(payload)
        );
        let mut slots = Vec::new();
        let header = BatchDecoder::new()
            .decode_into(payload, &mut slots, 0)
            .unwrap();
        assert_eq!(
            header,
            BatchHeader {
                first_seq: 41,
                count: events.len() as u32
            }
        );
        assert_eq!(slots, events);
        // "main" is named by several events but written once.
        let main = payload
            .windows(8)
            .filter(|w| w == b"\x04\0\0\0main")
            .count();
        assert_eq!(main, 1);
    }

    #[test]
    fn a_warm_encoder_starts_each_frame_with_empty_tables() {
        let events = every_variant();
        let mut encoder = BatchEncoder::new();
        let mut first = Vec::new();
        encoder.encode(&mut first, 1, &events);
        let mut second = Vec::new();
        encoder.encode(&mut second, 1, &events);
        assert_eq!(first, second);
    }

    #[test]
    fn decoding_appends_after_live_slots() {
        let events = every_variant();
        let mut buf = Vec::new();
        BatchEncoder::new().encode(&mut buf, 0, &events);
        let mut slots = events[..2].to_vec();
        let header = BatchDecoder::new()
            .decode_into(&buf[FRAME_HEADER_LEN..], &mut slots, 2)
            .unwrap();
        assert_eq!(header.count as usize, events.len());
        assert_eq!(&slots[..2], &events[..2]);
        assert_eq!(&slots[2..], &events[..]);
    }
}
