//! Allocation pin of the server's decode path — an exact count a noisy
//! host can check, where a stopwatch cannot.
//!
//! A connection's [`DecodeArena`] decodes each `EventBatch` over the
//! events of the batch it recycled before, strings included: once warm,
//! reading, checksumming and decoding a 256-event batch that holds every
//! event variant allocates nothing at all. (Decoding into fresh events, as
//! the arena did before, cost 513 allocations per such batch warm: one
//! per string of every event.)
//!
//! Own test binary, one test function: the counter is the process's
//! global allocator.

use net::proto::{self, DecodeArena, Message, DEFAULT_MAX_FRAME_LEN};
use online::{CallStats, RegionDef, RegionRef, RunKey, TraceEvent, VersionTag};
use perfdata::{DateTime, RegionKind, TimingType};
use testkit::allocations;

#[global_allocator]
static GLOBAL: testkit::Counting = testkit::Counting;

/// Event `i` of the batch: the seven shapes in turn — every variant, and
/// `RegionEntered` with and without a parent.
fn event(i: usize) -> TraceEvent {
    let run = RunKey(i as u64 % 5);
    let line = i as u32 + 1;
    let region = || RegionRef::new(format!("main:loop@{line}"), line);
    match i % 7 {
        0 => TraceEvent::RunStarted {
            run,
            version: VersionTag(3),
            program: "solver".into(),
            compiled_at: DateTime::from_secs(7),
            source: "program solver\n".into(),
            start: DateTime::from_secs(9),
            no_pe: 16,
            clockspeed: 450,
        },
        1 | 2 => TraceEvent::RegionEntered {
            run,
            function: "main".into(),
            region: RegionDef {
                name: format!("main:loop@{line}"),
                parent: (i % 7 == 2).then(|| RegionRef::new("main", 1)),
                kind: RegionKind::Loop,
                first_line: line,
                last_line: line + 10,
            },
        },
        3 => TraceEvent::RegionExited {
            run,
            function: "main".into(),
            region: region(),
            excl: 1.5,
            incl: 2.5,
            ovhd: 0.25,
        },
        4 => TraceEvent::TypedSample {
            run,
            function: "main".into(),
            region: region(),
            ty: TimingType::Barrier,
            time: 0.125,
        },
        5 => TraceEvent::CallSiteStat {
            run,
            caller: "main".into(),
            callee: "barrier".into(),
            site: region(),
            stats: CallStats {
                mean_count: 4.0,
                mean_time: 0.5,
                max_time_pe: 3,
                ..CallStats::default()
            },
        },
        _ => TraceEvent::RunFinished { run },
    }
}

#[test]
fn a_warm_arena_decodes_a_batch_without_allocating() {
    let events: Vec<TraceEvent> = (0..256).map(event).collect();
    let mut socket = Vec::new();
    let batch = Message::EventBatch {
        first_seq: 1,
        events: events.clone(),
    };
    proto::write_message(&mut socket, &batch).unwrap();

    let mut arena = DecodeArena::new();
    // One frame through the server's steps: read + checksum, decode,
    // hand the vector back.
    let mut round = || {
        arena
            .read_frame(&mut &socket[..], DEFAULT_MAX_FRAME_LEN)
            .unwrap();
        let Ok(Message::EventBatch {
            first_seq,
            events: decoded,
        }) = arena.decode()
        else {
            panic!("the frame is one event batch");
        };
        assert!(first_seq == 1 && decoded == events, "decoded another batch");
        arena.recycle(decoded);
    };
    let (cold, ()) = allocations(&mut round);
    let (warm, ()) = allocations(&mut round);
    println!("decode arena: {cold} allocations cold, {warm} warm, per 256-event batch");
    assert_eq!(warm, 0, "a warm arena allocates while decoding a batch");
}
