//! Allocation pin of the server's decode path — an exact count a noisy
//! host can check, where a stopwatch cannot.
//!
//! A connection's [`DecodeArena`] decodes each `EventBatch` over the
//! events of the batch it recycled before, strings included: once warm,
//! reading, checksumming and decoding a 256-event batch frame that holds
//! every event variant — its names read once into the arena's table, and
//! copied from there into the slots — allocates nothing at all; nor does
//! a version-2 producer's entry batch of the same events, nor a
//! producer's read of an ack into the buffer it keeps. (Decoding into
//! fresh events, as the arena did before, cost 513 allocations per such
//! batch warm: one per string of every event.)
//!
//! Own test binary, one test function: the counter is the process's
//! global allocator.

use net::proto::{self, DecodeArena, Message, DEFAULT_MAX_FRAME_LEN};
use online::batch::BATCH_TAG;
use online::wire::FRAME_HEADER_LEN;
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
    assert_eq!(socket[FRAME_HEADER_LEN], BATCH_TAG, "a batch frame");
    let entries = testkit::entry_batch_frame(1, &events);

    let mut arena = DecodeArena::new();
    // One frame through the server's steps: read + checksum, decode,
    // hand the vector back.
    let mut round = |socket: &[u8]| {
        arena
            .read_frame(&mut &*socket, DEFAULT_MAX_FRAME_LEN)
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
    let (cold, ()) = allocations(|| round(&socket));
    let (warm, ()) = allocations(|| round(&socket));
    println!("decode arena: {cold} allocations cold, {warm} warm, per 256-event batch frame");
    assert_eq!(
        warm, 0,
        "a warm arena allocates while decoding a batch frame"
    );
    // The entry batch is the longer frame: the arena's buffer grows once.
    round(&entries);
    let (entries_warm, ()) = allocations(|| round(&entries));
    println!("decode arena: {entries_warm} allocations warm per 256-event entry batch");
    assert_eq!(
        entries_warm, 0,
        "a warm arena allocates while decoding an entry batch"
    );

    // A producer reads each ack into the one buffer it keeps and decodes
    // it from there: nothing per ack once the buffer has grown.
    let mut ack = Vec::new();
    let sent = Message::Ack(proto::Ack {
        high_water: 256,
        headroom: 3840,
    });
    proto::write_message(&mut ack, &sent).unwrap();
    let mut incoming = Vec::new();
    let mut read_ack = || {
        proto::read_frame_into(&mut &ack[..], DEFAULT_MAX_FRAME_LEN, &mut incoming).unwrap();
        let got = proto::decode_message(&incoming[FRAME_HEADER_LEN..]).unwrap();
        assert!(got == sent, "decoded another ack");
    };
    read_ack();
    let (acks_warm, ()) = allocations(&mut read_ack);
    println!("producer: {acks_warm} allocations per ack read warm");
    assert_eq!(acks_warm, 0, "a producer allocates while reading an ack");
}
