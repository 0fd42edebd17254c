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

use online::wal::{self, FsyncPolicy, WalWriter};
use online::wire::{self, Reader, WireError};
use online::{CallStats, RegionDef, RegionRef, RunKey, TraceEvent, VersionTag};
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
                | WireError::BadUtf8
                | WireError::TrailingBytes { .. },
            ) => {}
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
