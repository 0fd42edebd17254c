//! Decode hardening: the wire codec now sits behind a network socket
//! (`kojak-net`), so [`TraceEvent::decode_wire`] is fed attacker-ish
//! bytes, not just our own WAL frames. Arbitrary input, truncations,
//! mutations, and hostile length prefixes must all come back as a typed
//! [`WireError`] — never a panic, never an over-read — and every valid
//! encoding must re-encode byte-identically (checksums over re-encoded
//! frames are stable), `f64` NaN/−0.0 bit patterns included.
//!
//! The server and WAL replay decode in place, over whatever event a
//! reused slot held before ([`TraceEvent::decode_wire_into`]): on every
//! input above and every prior slot content, it must accept exactly what
//! `decode_wire` accepts, produce the same event bit for bit, and fail
//! with the same error.
//!
//! Batch frames ([`online::batch`]) — what producers send and the log
//! holds — are held to the same: a frame re-encodes byte-identically
//! from its decoded events, over any prior slots, and a hostile table
//! count, an index out of range, invalid UTF-8 in a table name, a record
//! count that disagrees with the records, or a truncated record each fail
//! with a [`WireError`] naming the field.

use online::wal::{self, FsyncPolicy, WalWriter};
use online::wire::{self, Reader, WireError};
use online::{
    BatchDecoder, BatchEncoder, CallStats, RegionDef, RegionRef, RunKey, TraceEvent, VersionTag,
};
use perfdata::{DateTime, RegionKind, TimingType};
use proptest::prelude::*;

/// A deterministic pseudo-random event, with floats drawn straight from
/// raw bit patterns so NaNs, infinities, −0.0 and subnormals all occur.
fn event_from(variant: u8, a: u64, b: u64, line: u32, s: &str) -> TraceEvent {
    let f = f64::from_bits(b);
    match variant % 6 {
        0 => TraceEvent::RunStarted {
            run: RunKey(a),
            version: VersionTag(a ^ b),
            program: s.to_string(),
            compiled_at: DateTime(b as i64),
            source: format!("program {s}\n"),
            start: DateTime(a as i64),
            no_pe: line,
            clockspeed: 450,
        },
        1 => TraceEvent::RegionEntered {
            run: RunKey(a),
            function: s.to_string(),
            region: RegionDef {
                name: format!("{s}:loop@{line}"),
                parent: if b.is_multiple_of(2) {
                    None
                } else {
                    Some(RegionRef::new(s, line))
                },
                kind: match b % 5 {
                    0 => RegionKind::Subprogram,
                    1 => RegionKind::Loop,
                    2 => RegionKind::IfBlock,
                    3 => RegionKind::CallSite,
                    _ => RegionKind::BasicBlock,
                },
                first_line: line,
                last_line: line + 10,
            },
        },
        2 => TraceEvent::RegionExited {
            run: RunKey(a),
            function: s.to_string(),
            region: RegionRef::new(s, line),
            excl: f,
            incl: -f,
            ovhd: f64::from_bits(!b),
        },
        3 => TraceEvent::TypedSample {
            run: RunKey(a),
            function: s.to_string(),
            region: RegionRef::new(s, line),
            ty: if b.is_multiple_of(2) {
                TimingType::Barrier
            } else {
                TimingType::Instrumentation
            },
            time: f,
        },
        4 => TraceEvent::CallSiteStat {
            run: RunKey(a),
            caller: s.to_string(),
            callee: "barrier".to_string(),
            site: RegionRef::new(s, line),
            stats: CallStats {
                min_count: f,
                max_count: -f,
                mean_count: f64::from_bits(b.rotate_left(17)),
                stdev_count: 0.5,
                min_count_pe: line,
                max_count_pe: line + 1,
                min_time: f64::NEG_INFINITY,
                max_time: f64::INFINITY,
                mean_time: -0.0,
                stdev_time: f64::NAN,
                min_time_pe: 0,
                max_time_pe: 1,
            },
        },
        _ => TraceEvent::RunFinished { run: RunKey(a) },
    }
}

/// Bit-exact byte equality after a decode→re-encode round trip: the
/// invariant that keeps checksums over re-encoded frames stable. (Plain
/// `PartialEq` on events cannot check this — NaN != NaN by IEEE
/// semantics, while its *encoding* must be identical.)
fn assert_reencodes_identically(bytes: &[u8]) {
    let event = TraceEvent::decode_wire(bytes).expect("valid encoding decodes");
    let mut again = Vec::new();
    event.encode_wire(&mut again);
    assert_eq!(bytes, &again[..], "re-encode must be byte-identical");
    assert_eq!(wire::crc32(bytes), wire::crc32(&again));
}

/// Every content a reused decode slot can hold: each variant (by `k`),
/// `RegionEntered` both without (`k == 1`) and with (`k == 6`) a parent,
/// with strings shorter or longer than the ones decoded over them.
fn prior_slot(k: u8, a: u64, bits: u64, line: u32, s: &str) -> TraceEvent {
    match k % 7 {
        1 => event_from(1, a, bits & !1, line, s),
        6 => event_from(1, a, bits | 1, line, s),
        k => event_from(k, a, bits, line, s),
    }
}

/// Decoding `bytes` into `slot` agrees with decoding them fresh: `Ok`
/// exactly when `decode_wire` is, then the same event bit for bit (its
/// encoding, which `==` cannot stand in for: NaN != NaN, −0.0 == 0.0),
/// else the identical error.
fn assert_decodes_alike(bytes: &[u8], mut slot: TraceEvent) {
    let into = TraceEvent::decode_wire_into(bytes, &mut slot);
    match TraceEvent::decode_wire(bytes) {
        Ok(fresh) => {
            assert_eq!(
                into,
                Ok(()),
                "decode_wire accepted, decode_wire_into did not"
            );
            let (mut got, mut want) = (Vec::new(), Vec::new());
            slot.encode_wire(&mut got);
            fresh.encode_wire(&mut want);
            assert_eq!(got, want, "the reused slot decoded to another event");
        }
        Err(e) => assert_eq!(into, Err(e), "the two decoders fail differently"),
    }
}

proptest! {
    #![proptest_config(testkit::cases(256))]

    /// Arbitrary bytes — half of them behind a valid version byte and a
    /// near-valid tag, so decoding gets past the header — decode alike
    /// into every prior slot.
    #[test]
    fn decode_into_agrees_on_arbitrary_bytes(
        mut bytes in prop::collection::vec(any::<u8>(), 0..96),
        versioned in any::<bool>(),
        k in 0u8..7,
        a in any::<u64>(),
        bits in any::<u64>(),
        line in 1u32..5000,
        name in "[a-z:@0-9]{0,24}",
    ) {
        if versioned && bytes.len() >= 2 {
            bytes[0] = online::WIRE_VERSION;
            bytes[1] %= 7;
        }
        assert_decodes_alike(&bytes, prior_slot(k, a, bits, line, &name));
    }

    /// Valid encodings — whole, truncated, or with one byte flipped —
    /// decode alike into every prior slot.
    #[test]
    fn decode_into_agrees_on_mutated_encodings(
        variant in 0u8..6,
        a in any::<u64>(),
        bits in any::<u64>(),
        line in 1u32..5000,
        name in "[a-z:@0-9]{0,24}",
        edit in 0u8..3,
        pos_seed in any::<u64>(),
        flip in 1u8..255,
        k in 0u8..7,
        prior_bits in any::<u64>(),
        prior_name in "[a-z:@0-9]{0,24}",
    ) {
        let mut buf = Vec::new();
        event_from(variant, a, bits, line, &name).encode_wire(&mut buf);
        let pos = (pos_seed % buf.len() as u64) as usize;
        match edit {
            0 => {}
            1 => buf.truncate(pos),
            _ => buf[pos] ^= flip,
        }
        let prior = prior_slot(k, !a, prior_bits, line / 2 + 1, &prior_name);
        assert_decodes_alike(&buf, prior);
    }

    /// Arbitrary bytes: decode returns a value or a typed error; on
    /// success the value re-encodes to the exact input bytes.
    #[test]
    fn arbitrary_bytes_never_panic(bytes in prop::collection::vec(any::<u8>(), 0..96)) {
        match TraceEvent::decode_wire(&bytes) {
            Ok(_) => assert_reencodes_identically(&bytes),
            Err(
                WireError::UnexpectedEof { .. }
                | WireError::UnsupportedVersion(_)
                | WireError::BadEnum { .. }
                | WireError::BadUtf8 { .. }
                | WireError::TrailingBytes { .. },
            ) => {}
            Err(
                e @ (WireError::CountMismatch { .. }
                | WireError::BadIndex { .. }
                | WireError::BadVarint { .. }),
            ) => panic!("a single event has no tables or varints: {e}"),
        }
    }

    /// Every proper prefix of a valid encoding fails with a typed EOF
    /// (decoding is deterministic: a shorter buffer runs out inside some
    /// field), and the full encoding round-trips bit-exactly.
    #[test]
    fn truncations_fail_typed(
        variant in 0u8..6,
        a in any::<u64>(),
        bits in any::<u64>(),
        line in 1u32..5000,
        cut_seed in any::<u64>(),
    ) {
        let event = event_from(variant, a, bits, line, "solver");
        let mut buf = Vec::new();
        event.encode_wire(&mut buf);
        assert_reencodes_identically(&buf);
        let cut = (cut_seed % buf.len() as u64) as usize;
        prop_assert!(matches!(
            TraceEvent::decode_wire(&buf[..cut]),
            Err(WireError::UnexpectedEof { .. })
        ));
    }

    /// Single-byte mutations: still no panic, still typed-or-valid.
    #[test]
    fn mutations_fail_typed_or_decode(
        variant in 0u8..6,
        a in any::<u64>(),
        bits in any::<u64>(),
        line in 1u32..5000,
        pos_seed in any::<u64>(),
        flip in 1u8..255,
    ) {
        let event = event_from(variant, a, bits, line, "solver");
        let mut buf = Vec::new();
        event.encode_wire(&mut buf);
        let pos = (pos_seed % buf.len() as u64) as usize;
        buf[pos] ^= flip;
        if let Ok(mutated) = TraceEvent::decode_wire(&buf) {
            // The mutation landed in a value field; the reading must
            // still be framing-exact.
            let mut again = Vec::new();
            mutated.encode_wire(&mut again);
            prop_assert_eq!(buf, again);
        }
        // Err: typed, and the match above proved no panic either way.
    }
}

/// The satellite's named attack: a string length prefix declaring more
/// bytes than the buffer holds must be a typed EOF, not an over-read.
#[test]
fn oversized_string_length_prefix_is_typed_eof() {
    let mut buf = Vec::new();
    TraceEvent::RunStarted {
        run: RunKey(1),
        version: VersionTag(1),
        program: "app".into(),
        compiled_at: DateTime::from_secs(0),
        source: String::new(),
        start: DateTime::from_secs(0),
        no_pe: 4,
        clockspeed: 450,
    }
    .encode_wire(&mut buf);
    // The program-name length prefix sits after version byte + tag + two
    // u64 keys; declare u32::MAX bytes with only a handful remaining.
    let len_at = 1 + 1 + 8 + 8;
    buf[len_at..len_at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
    assert!(matches!(
        TraceEvent::decode_wire(&buf),
        Err(WireError::UnexpectedEof { what: "program" })
    ));

    // Same attack at the raw Reader level: a get_bytes for more than
    // remains is refused without touching out-of-bounds memory.
    let small = [0u8; 4];
    let mut r = Reader::new(&small);
    assert!(matches!(
        r.get_bytes(usize::MAX, "payload"),
        Err(WireError::UnexpectedEof { what: "payload" })
    ));
    assert_eq!(r.remaining(), 4, "a refused read consumes nothing");
}

/// NaN / −0.0 / infinities round-trip the WAL as bit patterns: the
/// recovered events re-encode byte-identically, so frame checksums over
/// re-encoded events are stable across a WAL cycle.
#[test]
fn nan_payloads_roundtrip_the_wal_bit_exactly() {
    let dir = testkit::ScratchDir::new("wire-fuzz");
    std::fs::create_dir_all(dir.path()).unwrap();
    let path = dir.path().join("wal.log");

    // A quiet NaN, a signaling-ish NaN with payload bits, −0.0, ±inf, a
    // subnormal: every special f64 class.
    let specials = [
        f64::NAN.to_bits(),
        0x7ff0_0000_0000_2026u64,
        (-0.0f64).to_bits(),
        f64::INFINITY.to_bits(),
        f64::NEG_INFINITY.to_bits(),
        0x0000_0000_0000_0001u64,
    ];
    let events: Vec<TraceEvent> = specials
        .iter()
        .enumerate()
        .map(|(i, &bits)| TraceEvent::RegionExited {
            run: RunKey(i as u64),
            function: "main".into(),
            region: RegionRef::new("main", 1),
            excl: f64::from_bits(bits),
            incl: f64::from_bits(bits ^ (1 << 63)),
            ovhd: 0.25,
        })
        .collect();

    let mut encodings = Vec::new();
    for event in &events {
        let mut buf = Vec::new();
        event.encode_wire(&mut buf);
        encodings.push(buf);
    }

    {
        let mut writer = WalWriter::open(&path, 0, 0, FsyncPolicy::Always).unwrap();
        writer.append_batch(&events).unwrap();
    }
    let contents = wal::read_wal(&path).unwrap();
    assert!(contents.corruption.is_none());
    assert_eq!(contents.events.len(), events.len());
    for ((read_back, original), encoding) in contents.events.iter().zip(&events).zip(&encodings) {
        // Value equality is the wrong test (NaN != NaN); bit patterns
        // and re-encoded bytes are the contract.
        let (
            TraceEvent::RegionExited {
                excl: a, incl: b, ..
            },
            TraceEvent::RegionExited {
                excl: x, incl: y, ..
            },
        ) = (read_back, original)
        else {
            panic!("variant changed in the WAL");
        };
        assert_eq!(a.to_bits(), x.to_bits());
        assert_eq!(b.to_bits(), y.to_bits());
        let mut again = Vec::new();
        read_back.encode_wire(&mut again);
        assert_eq!(&again, encoding, "WAL round-trip re-encodes bit-exactly");
    }
}

// ------------------------------------------------------- batch frames ----

/// A batch of `n` events drawn like [`event_from`]'s, their names from a
/// pool of four so that tables hold repeats, and two runs.
fn batch_from(n: usize, variants: u64, bits: u64, line: u32) -> Vec<TraceEvent> {
    const NAMES: [&str; 4] = ["main", "solver:loop@12", "", "kernel"];
    (0..n)
        .map(|i| {
            let v = (variants >> (i % 21 * 3)) as u8;
            let b = bits.rotate_left(i as u32 * 7);
            event_from(v, i as u64 % 2, b, line + i as u32, NAMES[i % 4])
        })
        .collect()
}

/// The payload of a batch frame of `events`.
fn batch_payload(events: &[TraceEvent]) -> Vec<u8> {
    let mut frame = Vec::new();
    BatchEncoder::new().encode(&mut frame, 5, events);
    frame.split_off(wire::FRAME_HEADER_LEN)
}

/// Decode a batch payload into fresh slots.
fn decode_batch(payload: &[u8]) -> Result<Vec<TraceEvent>, WireError> {
    let mut events = Vec::new();
    let header = BatchDecoder::new().decode_into(payload, &mut events, 0)?;
    events.truncate(header.count as usize);
    Ok(events)
}

/// A batch payload's sections: the records, then the tables.
fn split_batch(payload: &[u8]) -> (&[u8], &[u8]) {
    let records = u32::from_le_bytes(payload[14..18].try_into().unwrap()) as usize;
    payload[18..].split_at(records)
}

/// A batch payload of `count` events from these sections.
fn join_batch(count: u32, records: &[u8], tables: &[u8]) -> Vec<u8> {
    let mut payload = vec![online::batch::BATCH_TAG, online::batch::BATCH_VERSION];
    wire::put_u64(&mut payload, 5);
    wire::put_u32(&mut payload, count);
    wire::put_u32(&mut payload, records.len() as u32);
    payload.extend_from_slice(records);
    payload.extend_from_slice(tables);
    payload
}

proptest! {
    #![proptest_config(testkit::cases(256))]

    /// Encode → decode → encode is byte-identical, NaN payloads, −0.0
    /// and infinities included; decoding over the slots of another batch
    /// gives the same events bit for bit.
    #[test]
    fn batch_frames_roundtrip_bit_exactly(
        n in 0usize..40,
        variants in any::<u64>(),
        bits in any::<u64>(),
        line in 1u32..5000,
        m in 0usize..40,
        prior_variants in any::<u64>(),
    ) {
        let events = batch_from(n, variants, bits, line);
        let payload = batch_payload(&events);
        let decoded = decode_batch(&payload).expect("a valid batch decodes");
        prop_assert_eq!(batch_payload(&decoded), payload.clone());
        let mut slots = batch_from(m, prior_variants, !bits, line / 2 + 1);
        let header = BatchDecoder::new()
            .decode_into(&payload, &mut slots, 0)
            .expect("decodes over any slots");
        prop_assert_eq!(header.count as usize, n);
        let (mut got, mut want) = (Vec::new(), Vec::new());
        for (slot, event) in slots[..n].iter().zip(&decoded) {
            slot.encode_wire(&mut got);
            event.encode_wire(&mut want);
        }
        prop_assert_eq!(got, want);
    }

    /// Truncated or byte-flipped batch payloads decode or fail typed —
    /// never a panic, never an over-read.
    #[test]
    fn damaged_batch_frames_fail_typed(
        n in 1usize..24,
        variants in any::<u64>(),
        bits in any::<u64>(),
        edit in 0u8..2,
        pos_seed in any::<u64>(),
        flip in 1u8..255,
    ) {
        let mut payload = batch_payload(&batch_from(n, variants, bits, 3));
        let pos = (pos_seed % payload.len() as u64) as usize;
        match edit {
            0 => payload.truncate(pos),
            _ => payload[pos] ^= flip,
        }
        let _ = decode_batch(&payload);
    }
}

#[test]
fn hostile_table_counts_fail_typed_without_allocating_by_the_count() {
    let payload = batch_payload(&batch_from(6, 0x2d2d_2d2d_2d2d, 7, 3));
    let (records, tables) = split_batch(&payload);
    let runs = u32::from_le_bytes(tables[..4].try_into().unwrap()) as usize;
    let names_at = 4 + runs * 8;

    let mut hostile = tables.to_vec();
    hostile[..4].copy_from_slice(&u32::MAX.to_le_bytes());
    assert_eq!(
        decode_batch(&join_batch(6, records, &hostile)),
        Err(WireError::UnexpectedEof { what: "run keys" })
    );
    let mut hostile = tables.to_vec();
    hostile[names_at..names_at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
    assert_eq!(
        decode_batch(&join_batch(6, records, &hostile)),
        Err(WireError::UnexpectedEof { what: "table name" })
    );
    // A count of events far past the records present.
    assert_eq!(
        decode_batch(&join_batch(u32::MAX, records, tables)),
        Err(WireError::UnexpectedEof { what: "record tag" })
    );
}

#[test]
fn indices_out_of_range_name_their_field() {
    let events = [TraceEvent::TypedSample {
        run: RunKey(4),
        function: "main".into(),
        region: RegionRef::new("main:loop@3", 3),
        ty: TimingType::Barrier,
        time: 0.5,
    }];
    let payload = batch_payload(&events);
    let (records, tables) = split_batch(&payload);
    // tag | run 0 | function 0 | region 1 | …
    assert_eq!(&records[..4], &[3, 0, 0, 1]);
    for (at, what, len) in [
        (1, "run index", 1),
        (2, "function index", 2),
        (3, "region index", 2),
    ] {
        let mut bad = records.to_vec();
        bad[at] = 9;
        assert_eq!(
            decode_batch(&join_batch(1, &bad, tables)),
            Err(WireError::BadIndex {
                what,
                index: 9,
                len
            })
        );
    }
    let mut overlong = records[..2].to_vec();
    overlong.extend_from_slice(&[0xff, 0xff, 0xff, 0xff, 0x7f]);
    overlong.extend_from_slice(&records[3..]);
    assert_eq!(
        decode_batch(&join_batch(1, &overlong, tables)),
        Err(WireError::BadVarint {
            what: "function index"
        })
    );
}

#[test]
fn invalid_utf8_in_a_table_name_is_typed() {
    let payload = batch_payload(&[TraceEvent::RunFinished { run: RunKey(1) }]);
    let (records, _) = split_batch(&payload);
    let mut tables = Vec::new();
    wire::put_u32(&mut tables, 1);
    wire::put_u64(&mut tables, 1);
    wire::put_u32(&mut tables, 1);
    wire::put_u32(&mut tables, 2);
    tables.extend_from_slice(&[0xc3, 0x28]);
    assert_eq!(
        decode_batch(&join_batch(1, records, &tables)),
        Err(WireError::BadUtf8 { what: "table name" })
    );
}

#[test]
fn a_record_count_that_disagrees_or_a_truncated_record_is_typed() {
    let events = batch_from(5, 0x1249_2492_4924, 11, 3);
    let payload = batch_payload(&events);
    let (records, tables) = split_batch(&payload);
    assert_eq!(
        decode_batch(&join_batch(4, records, tables)),
        Err(WireError::CountMismatch {
            what: "records",
            remaining: records.len() - split_batch(&batch_payload(&events[..4])).0.len()
        })
    );
    assert_eq!(
        decode_batch(&join_batch(6, records, tables)),
        Err(WireError::UnexpectedEof { what: "record tag" })
    );
    // The last record cut short by one byte: its last field runs out.
    assert!(matches!(
        decode_batch(&join_batch(5, &records[..records.len() - 1], tables)),
        Err(WireError::UnexpectedEof { .. })
    ));
    // Bytes after the name table.
    let mut trailing = tables.to_vec();
    trailing.push(0);
    assert_eq!(
        decode_batch(&join_batch(5, records, &trailing)),
        Err(WireError::CountMismatch {
            what: "name table",
            remaining: 1
        })
    );
}
