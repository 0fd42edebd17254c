//! The wire protocol: handshake, frames, and messages.
//!
//! Everything on the socket reuses the hand-rolled binary primitives of
//! [`online::wire`] (little-endian integers, `f64` bit patterns,
//! length-prefixed strings) and the event encoding of
//! [`TraceEvent::encode_wire`] — the exact codec the write-ahead log
//! already trusts. The network adds three layers on top:
//!
//! ## Handshake
//!
//! A producer opens the connection with a fixed-size hello:
//!
//! ```text
//! ┌───────────┬──────────┬────────────────┬───────────────┬────────────┐
//! │ "KJNP"    │ proto: u8│ producer_id: u64│ spec_hash: u64│ features: u8│
//! └───────────┴──────────┴────────────────┴───────────────┴────────────┘
//! ```
//!
//! and the server answers with a fixed-size reply carrying its own spec
//! hash, the producer's **last acknowledged sequence number** (the resume
//! point after a producer restart), the in-flight **window**, and the
//! negotiated feature set:
//!
//! ```text
//! ┌────────┬──────────┬───────────┬──────────────┬───────────────┬────────────┬────────────┐
//! │ "KJNP" │ proto: u8│ status: u8│ spec_hash: u64│ last_acked: u64│ window: u32│ features: u8│
//! └────────┴──────────┴───────────┴──────────────┴───────────────┴────────────┴────────────┘
//! ```
//!
//! A spec-hash mismatch is refused at this point with a typed
//! [`NetError::SpecMismatch`]: a producer built against one property
//! suite must not silently feed a server evaluating another.
//!
//! ## Feature negotiation
//!
//! The trailing byte of each hello direction is a **feature bitmask**
//! (see [`feature`]): the producer offers the optional message sets it
//! can speak, the server echoes the intersection with what it supports
//! ([`FEATURES_SUPPORTED`]). Unknown bits are *masked, not refused* — a
//! newer peer degrades gracefully instead of tripping a hard version
//! mismatch. Only a change to the **core** message set (handshake,
//! event batches, acks) bumps [`PROTO_VERSION`]; optional additions like
//! [`Message::Introspect`] ride on a feature bit. The server reads the
//! version-bearing 21-byte prefix first ([`HELLO_PREFIX_LEN`]) and only
//! consumes the features byte from a version-2 peer, so a v1 producer is
//! refused promptly instead of deadlocking on a byte it never sends.
//!
//! ## Frames
//!
//! After the handshake both directions speak length-prefixed,
//! CRC-32-checksummed frames — the same layout as a WAL frame:
//!
//! ```text
//! ┌────────────┬─────────────┬─────────┐
//! │ len: u32 LE│ crc32: u32  │ payload │
//! └────────────┴─────────────┴─────────┘
//! ```
//!
//! The declared length is checked against a configurable cap *before*
//! any allocation ([`NetError::FrameTooLarge`]), so a corrupt or hostile
//! prefix cannot balloon memory.
//!
//! ## Messages
//!
//! A frame payload is one [`Message`], tagged by its first byte:
//! `EventBatch` (producer → server: a contiguous run of sequenced
//! events), `Ack` (server → producer: high-water mark + queue headroom —
//! the backpressure signal), or `Goodbye` (producer → server: graceful
//! end of stream).

use crate::error::NetError;
use asl_core::check::CheckedSpec;
use online::wire::{self, Reader, WireError};
use online::TraceEvent;
use std::io::{Read, Write};

/// Magic prefix opening both handshake directions.
pub const NET_MAGIC: &[u8; 4] = b"KJNP";
/// Protocol version. Bump on any **core** handshake/frame/message layout
/// change; both ends refuse unknown versions with a typed error. Optional
/// message sets are negotiated via [`feature`] bits instead. Version 2
/// appended the feature byte to both hello directions.
pub const PROTO_VERSION: u8 = 2;
/// Byte length of the producer hello.
pub const HELLO_LEN: usize = 22;
/// Byte length of the version-bearing hello prefix (everything before
/// the v2 feature byte — exactly the v1 hello). The server reads this
/// much first, so a v1 producer gets a prompt refusal instead of a stall
/// waiting for a feature byte it never sends.
pub const HELLO_PREFIX_LEN: usize = 21;
/// Byte length of the server hello reply.
pub const HELLO_ACK_LEN: usize = 27;
/// Default cap on a frame's payload length.
pub const DEFAULT_MAX_FRAME_LEN: u32 = 1 << 20;

/// Optional message-set bits exchanged (and intersected) at handshake.
///
/// A peer sets a bit to offer the message set; the server's reply
/// carries the negotiated intersection. Unknown bits are masked off, not
/// refused, so future additions stay backward compatible.
pub mod feature {
    /// The observability message set: [`super::Message::Introspect`]
    /// (producer → server poll) answered by
    /// [`super::Message::MetricsReport`] (an encoded
    /// [`obs::MetricsSnapshot`]).
    pub const INTROSPECT: u8 = 1;
}

/// Every feature bit this build understands — the server masks a
/// producer's offer down to this set.
pub const FEATURES_SUPPORTED: u8 = feature::INTROSPECT;

/// Handshake status codes (byte 6 of the server reply).
pub mod status {
    /// Connection accepted; stream events.
    pub const ACCEPTED: u8 = 0;
    /// Producer and server evaluate different property suites.
    pub const SPEC_MISMATCH: u8 = 1;
    /// The producer's protocol version is not supported.
    pub const UNSUPPORTED_PROTOCOL: u8 = 2;
    /// The producer is quarantined (too many protocol errors on its
    /// previous connections); its handshakes are refused until the
    /// operator clears it server-side.
    pub const QUARANTINED: u8 = 3;
}

// ---------------------------------------------------------- spec hash ----

/// 64-bit FNV-1a over the canonical pretty-printing of the suite, with
/// the event-layout version mixed in: two endpoints agree on a hash only
/// when they evaluate the same properties *and* frame events the same
/// way. Exchanged at handshake; a mismatch refuses the connection.
pub fn spec_hash(spec: &CheckedSpec) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    eat(&[online::WIRE_VERSION]);
    eat(asl_core::pretty::print_spec(&spec.spec).as_bytes());
    h
}

/// [`spec_hash`] of the standard suite — a producer's default, and what a
/// server fronting a standard-suite engine advertises.
pub fn standard_spec_hash() -> u64 {
    use std::sync::OnceLock;
    static HASH: OnceLock<u64> = OnceLock::new();
    *HASH.get_or_init(|| spec_hash(&cosy::suite::standard_suite()))
}

// ---------------------------------------------------------- handshake ----

/// The producer's opening bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Hello {
    /// Producer-chosen stable identity (the resume key).
    pub producer_id: u64,
    /// Hash of the suite the producer was built against.
    pub spec_hash: u64,
    /// Optional message sets the producer offers (see [`feature`]).
    pub features: u8,
}

/// Encode a producer hello.
pub fn encode_hello(hello: &Hello) -> Vec<u8> {
    let mut buf = Vec::with_capacity(HELLO_LEN);
    buf.extend_from_slice(NET_MAGIC);
    wire::put_u8(&mut buf, PROTO_VERSION);
    wire::put_u64(&mut buf, hello.producer_id);
    wire::put_u64(&mut buf, hello.spec_hash);
    wire::put_u8(&mut buf, hello.features);
    buf
}

/// Decode the version-bearing prefix of a producer hello — everything
/// **except** the trailing v2 feature byte, which the server reads (and
/// fills in) only after seeing a version that has one. The protocol
/// version is returned alongside so the server can refuse politely (with
/// a reply) rather than drop the connection.
pub fn decode_hello_prefix(bytes: &[u8; HELLO_PREFIX_LEN]) -> Result<(u8, Hello), NetError> {
    if &bytes[..4] != NET_MAGIC {
        return Err(NetError::BadMagic(bytes[..4].try_into().unwrap()));
    }
    let mut r = Reader::new(&bytes[4..]);
    let version = r.get_u8("protocol version").map_err(NetError::Wire)?;
    let hello = Hello {
        producer_id: r.get_u64("producer id").map_err(NetError::Wire)?,
        spec_hash: r.get_u64("spec hash").map_err(NetError::Wire)?,
        features: 0,
    };
    Ok((version, hello))
}

/// Decode a complete v2 producer hello (prefix + feature byte).
pub fn decode_hello(bytes: &[u8; HELLO_LEN]) -> Result<(u8, Hello), NetError> {
    let prefix: &[u8; HELLO_PREFIX_LEN] = bytes[..HELLO_PREFIX_LEN].try_into().unwrap();
    let (version, mut hello) = decode_hello_prefix(prefix)?;
    hello.features = bytes[HELLO_PREFIX_LEN];
    Ok((version, hello))
}

/// The server's handshake reply.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HelloAck {
    /// One of the [`status`] codes.
    pub status: u8,
    /// Hash of the suite the server evaluates.
    pub spec_hash: u64,
    /// Highest sequence number of this producer the server has applied
    /// and acknowledged — the producer resumes from the next one.
    pub last_acked: u64,
    /// Maximum events the producer should keep in flight (unacked).
    pub window: u32,
    /// Negotiated feature set: the producer's offer intersected with
    /// [`FEATURES_SUPPORTED`].
    pub features: u8,
}

/// Encode a server hello reply.
pub fn encode_hello_ack(ack: &HelloAck) -> Vec<u8> {
    let mut buf = Vec::with_capacity(HELLO_ACK_LEN);
    buf.extend_from_slice(NET_MAGIC);
    wire::put_u8(&mut buf, PROTO_VERSION);
    wire::put_u8(&mut buf, ack.status);
    wire::put_u64(&mut buf, ack.spec_hash);
    wire::put_u64(&mut buf, ack.last_acked);
    wire::put_u32(&mut buf, ack.window);
    wire::put_u8(&mut buf, ack.features);
    buf
}

/// Decode a server hello reply.
pub fn decode_hello_ack(bytes: &[u8; HELLO_ACK_LEN]) -> Result<HelloAck, NetError> {
    if &bytes[..4] != NET_MAGIC {
        return Err(NetError::BadMagic(bytes[..4].try_into().unwrap()));
    }
    let mut r = Reader::new(&bytes[4..]);
    let version = r.get_u8("protocol version").map_err(NetError::Wire)?;
    if version != PROTO_VERSION {
        return Err(NetError::UnsupportedProtocol(version));
    }
    Ok(HelloAck {
        status: r.get_u8("handshake status").map_err(NetError::Wire)?,
        spec_hash: r.get_u64("spec hash").map_err(NetError::Wire)?,
        last_acked: r.get_u64("last acked").map_err(NetError::Wire)?,
        window: r.get_u32("window").map_err(NetError::Wire)?,
        features: r.get_u8("negotiated features").map_err(NetError::Wire)?,
    })
}

// ----------------------------------------------------------- messages ----

/// A batch acknowledgement — the backpressure signal.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Ack {
    /// Every event with sequence number ≤ this has been applied (or
    /// rejected with a counted [`online::IngestError`]) by the engine.
    pub high_water: u64,
    /// How many more events the server currently wants in flight: its
    /// configured window minus the events it has accepted but not yet
    /// flushed through analysis. Producers throttle on this instead of
    /// the server buffering unboundedly.
    pub headroom: u32,
}

/// One frame payload.
#[derive(Debug, Clone, PartialEq)]
pub enum Message {
    /// Producer → server: events with consecutive sequence numbers
    /// `first_seq, first_seq+1, …`.
    EventBatch {
        /// Sequence number of the first event.
        first_seq: u64,
        /// The events, in sequence order.
        events: Vec<TraceEvent>,
    },
    /// Server → producer: applied high-water mark + queue headroom.
    Ack(Ack),
    /// Producer → server: graceful end of stream.
    Goodbye,
    /// Producer → server: poll the server's live metric registry. Only
    /// valid when [`feature::INTROSPECT`] was negotiated; answered with a
    /// [`Message::MetricsReport`].
    Introspect,
    /// Server → producer: an encoded [`obs::MetricsSnapshot`] (the bytes
    /// of [`obs::MetricsSnapshot::encode`]; kept opaque at this layer so
    /// the frame codec does not depend on the snapshot codec's failure
    /// modes — the client decodes, mapping errors to
    /// [`NetError::Snapshot`]).
    MetricsReport(Vec<u8>),
}

const KIND_EVENT_BATCH: u8 = 1;
const KIND_ACK: u8 = 2;
const KIND_GOODBYE: u8 = 3;
const KIND_INTROSPECT: u8 = 4;
const KIND_METRICS_REPORT: u8 = 5;

impl Message {
    /// Short message-kind name for diagnostics.
    pub fn kind(&self) -> &'static str {
        match self {
            Message::EventBatch { .. } => "event-batch",
            Message::Ack(_) => "ack",
            Message::Goodbye => "goodbye",
            Message::Introspect => "introspect",
            Message::MetricsReport(_) => "metrics-report",
        }
    }
}

/// Append one `len u32 | encoded event` entry of an EventBatch body.
/// Producers encode each event exactly once with this and retain the
/// bytes until acknowledged, so a resend re-frames cached bytes instead
/// of re-serializing.
pub fn encode_batch_entry(body: &mut Vec<u8>, event: &TraceEvent) {
    let len_at = body.len();
    wire::put_u32(body, 0); // back-patched below
    event.encode_wire(body);
    let len = (body.len() - len_at - 4) as u32;
    body[len_at..len_at + 4].copy_from_slice(&len.to_le_bytes());
}

/// Build a full EventBatch frame payload from a pre-encoded body of
/// `count` [`encode_batch_entry`] entries.
pub fn event_batch_payload(first_seq: u64, count: u32, body: &[u8]) -> Vec<u8> {
    let mut payload = Vec::with_capacity(13 + body.len());
    wire::put_u8(&mut payload, KIND_EVENT_BATCH);
    wire::put_u64(&mut payload, first_seq);
    wire::put_u32(&mut payload, count);
    payload.extend_from_slice(body);
    payload
}

/// Append the encoding of `message` to `buf`.
pub fn encode_message(buf: &mut Vec<u8>, message: &Message) {
    match message {
        Message::EventBatch { first_seq, events } => {
            wire::put_u8(buf, KIND_EVENT_BATCH);
            wire::put_u64(buf, *first_seq);
            wire::put_u32(buf, events.len() as u32);
            for event in events {
                encode_batch_entry(buf, event);
            }
        }
        Message::Ack(ack) => {
            wire::put_u8(buf, KIND_ACK);
            wire::put_u64(buf, ack.high_water);
            wire::put_u32(buf, ack.headroom);
        }
        Message::Goodbye => wire::put_u8(buf, KIND_GOODBYE),
        Message::Introspect => wire::put_u8(buf, KIND_INTROSPECT),
        Message::MetricsReport(bytes) => {
            wire::put_u8(buf, KIND_METRICS_REPORT);
            wire::put_u32(buf, bytes.len() as u32);
            buf.extend_from_slice(bytes);
        }
    }
}

/// Decode one frame payload. The whole payload must be consumed; typed
/// errors on anything else — a socket feeds this arbitrary bytes.
pub fn decode_message(payload: &[u8]) -> Result<Message, WireError> {
    decode_message_with_pool(payload, &mut Vec::new())
}

/// [`decode_message`] with a recycled-vector pool: an `EventBatch`
/// decodes into a vector popped from `pool` (allocation-free once warm)
/// instead of a fresh one. See [`DecodeArena`] for the owning handle.
fn decode_message_with_pool(
    payload: &[u8],
    pool: &mut Vec<Vec<TraceEvent>>,
) -> Result<Message, WireError> {
    let mut r = Reader::new(payload);
    let message = match r.get_u8("message kind")? {
        KIND_EVENT_BATCH => {
            let first_seq = r.get_u64("first sequence")?;
            let count = r.get_u32("event count")? as usize;
            // Preallocation guard: a wire-encoded event is ≥ 2 bytes plus
            // its 4-byte length prefix, so `count` can never legitimately
            // exceed remaining/6 — a hostile count is caught by the
            // bounds-checked reads below, and must not balloon capacity.
            let mut events = pool.pop().unwrap_or_default();
            events.reserve(count.min(r.remaining() / 6 + 1));
            for _ in 0..count {
                let len = r.get_u32("event length")? as usize;
                let bytes = r.get_bytes(len, "event payload")?;
                events.push(TraceEvent::decode_wire(bytes)?);
            }
            Message::EventBatch { first_seq, events }
        }
        KIND_ACK => Message::Ack(Ack {
            high_water: r.get_u64("ack high water")?,
            headroom: r.get_u32("ack headroom")?,
        }),
        KIND_GOODBYE => Message::Goodbye,
        KIND_INTROSPECT => Message::Introspect,
        KIND_METRICS_REPORT => {
            let len = r.get_u32("metrics report length")? as usize;
            Message::MetricsReport(r.get_bytes(len, "metrics report payload")?.to_vec())
        }
        code => {
            return Err(WireError::BadEnum {
                what: "message kind",
                code,
            })
        }
    };
    r.finish()?;
    Ok(message)
}

// ------------------------------------------------------------- frames ----

/// Write `payload` as one frame (len + crc32 + payload, a single write).
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> std::io::Result<()> {
    let mut frame = Vec::with_capacity(8 + payload.len());
    wire::put_u32(&mut frame, payload.len() as u32);
    wire::put_u32(&mut frame, wire::crc32(payload));
    frame.extend_from_slice(payload);
    w.write_all(&frame)?;
    w.flush()
}

/// Encode and write `message` as one frame.
pub fn write_message(w: &mut impl Write, message: &Message) -> std::io::Result<()> {
    let mut payload = Vec::with_capacity(64);
    encode_message(&mut payload, message);
    write_frame(w, &payload)
}

/// Read one frame payload, verifying length cap and checksum before
/// anything downstream sees the bytes.
pub fn read_frame(r: &mut impl Read, max_len: u32) -> Result<Vec<u8>, NetError> {
    let mut payload = Vec::new();
    read_frame_into(r, max_len, &mut payload)?;
    Ok(payload)
}

/// [`read_frame`] into a caller-owned buffer (cleared first): the hot
/// path reuses one buffer per connection instead of allocating per
/// frame. The length cap is enforced *before* the buffer grows, so a
/// hostile prefix still cannot balloon memory.
pub fn read_frame_into(
    r: &mut impl Read,
    max_len: u32,
    payload: &mut Vec<u8>,
) -> Result<(), NetError> {
    let mut header = [0u8; 8];
    r.read_exact(&mut header)?;
    let len = u32::from_le_bytes(header[..4].try_into().unwrap());
    let crc = u32::from_le_bytes(header[4..].try_into().unwrap());
    if len > max_len {
        return Err(NetError::FrameTooLarge { len, max: max_len });
    }
    payload.clear();
    payload.resize(len as usize, 0);
    r.read_exact(payload)?;
    let actual = wire::crc32(payload);
    if actual != crc {
        return Err(NetError::Checksum {
            expected: crc,
            actual,
        });
    }
    Ok(())
}

/// A per-connection decode arena: one payload buffer reused across
/// frames, plus a small pool of recycled event vectors, so the server's
/// decode → handle path performs no per-frame (let alone per-event)
/// buffer allocations once warm. The handler hands an `EventBatch`'s
/// vector back through [`DecodeArena::recycle`] after ingesting it.
#[derive(Debug, Default)]
pub struct DecodeArena {
    payload: Vec<u8>,
    pool: Vec<Vec<TraceEvent>>,
}

/// Recycled event vectors kept per arena; beyond this, returned vectors
/// are simply dropped (one in flight is the norm — the handler recycles
/// before the next frame is read).
const ARENA_POOL_CAP: usize = 4;

impl DecodeArena {
    /// A fresh arena (buffers grow on first use).
    pub fn new() -> DecodeArena {
        DecodeArena::default()
    }

    /// Read one frame into the arena's payload buffer (see
    /// [`read_frame_into`]).
    pub fn read_frame(&mut self, r: &mut impl Read, max_len: u32) -> Result<(), NetError> {
        read_frame_into(r, max_len, &mut self.payload)
    }

    /// Decode the last frame read by [`DecodeArena::read_frame`]. An
    /// `EventBatch` decodes into a recycled vector from the pool.
    pub fn decode(&mut self) -> Result<Message, WireError> {
        let payload = std::mem::take(&mut self.payload);
        let result = decode_message_with_pool(&payload, &mut self.pool);
        self.payload = payload;
        result
    }

    /// Return an `EventBatch`'s event vector for reuse by a later decode.
    pub fn recycle(&mut self, mut events: Vec<TraceEvent>) {
        if self.pool.len() < ARENA_POOL_CAP {
            events.clear();
            self.pool.push(events);
        }
    }
}

/// Read one frame and decode its [`Message`].
pub fn read_message(r: &mut impl Read, max_len: u32) -> Result<Message, NetError> {
    let payload = read_frame(r, max_len)?;
    decode_message(&payload).map_err(NetError::Wire)
}

#[cfg(test)]
mod tests {
    use super::*;
    use online::RunKey;

    #[test]
    fn hello_roundtrip_and_refusals() {
        let hello = Hello {
            producer_id: 7,
            spec_hash: 0xdead_beef_cafe_f00d,
            features: feature::INTROSPECT,
        };
        let bytes = encode_hello(&hello);
        assert_eq!(bytes.len(), HELLO_LEN);
        let (version, back) = decode_hello(&bytes.try_into().unwrap()).unwrap();
        assert_eq!(version, PROTO_VERSION);
        assert_eq!(back, hello);

        let mut bad = encode_hello(&hello);
        bad[..4].copy_from_slice(b"HTTP");
        assert!(matches!(
            decode_hello(&bad.try_into().unwrap()),
            Err(NetError::BadMagic(m)) if &m == b"HTTP"
        ));
    }

    #[test]
    fn hello_prefix_is_exactly_the_v1_hello() {
        // The prefix decode sees everything but the feature byte — the
        // bytes a v1 producer sends. The server relies on this to refuse
        // v1 hellos without waiting for a 22nd byte.
        let hello = Hello {
            producer_id: 9,
            spec_hash: 77,
            features: feature::INTROSPECT,
        };
        let bytes = encode_hello(&hello);
        let prefix: [u8; HELLO_PREFIX_LEN] = bytes[..HELLO_PREFIX_LEN].try_into().unwrap();
        let (version, decoded) = decode_hello_prefix(&prefix).unwrap();
        assert_eq!(version, PROTO_VERSION);
        assert_eq!(decoded.producer_id, 9);
        assert_eq!(decoded.spec_hash, 77);
        assert_eq!(decoded.features, 0, "prefix carries no features");
    }

    #[test]
    fn hello_ack_roundtrip() {
        let ack = HelloAck {
            status: status::ACCEPTED,
            spec_hash: 42,
            last_acked: 1000,
            window: 4096,
            features: feature::INTROSPECT,
        };
        let bytes = encode_hello_ack(&ack);
        assert_eq!(bytes.len(), HELLO_ACK_LEN);
        assert_eq!(decode_hello_ack(&bytes.try_into().unwrap()).unwrap(), ack);

        let mut skewed = encode_hello_ack(&ack);
        skewed[4] = 99;
        assert!(matches!(
            decode_hello_ack(&skewed.try_into().unwrap()),
            Err(NetError::UnsupportedProtocol(99))
        ));
    }

    #[test]
    fn message_roundtrip() {
        let messages = [
            Message::EventBatch {
                first_seq: 17,
                events: vec![
                    TraceEvent::RunFinished { run: RunKey(1) },
                    TraceEvent::RunFinished { run: RunKey(2) },
                ],
            },
            Message::Ack(Ack {
                high_water: 18,
                headroom: 512,
            }),
            Message::Goodbye,
            Message::Introspect,
            Message::MetricsReport(vec![0xab; 37]),
        ];
        for message in &messages {
            let mut buf = Vec::new();
            encode_message(&mut buf, message);
            assert_eq!(
                &decode_message(&buf).unwrap(),
                message,
                "{}",
                message.kind()
            );
        }
    }

    #[test]
    fn frame_roundtrip_checksum_and_cap() {
        let mut socket = Vec::new();
        write_message(&mut socket, &Message::Goodbye).unwrap();
        let mut cursor = &socket[..];
        assert_eq!(
            read_message(&mut cursor, DEFAULT_MAX_FRAME_LEN).unwrap(),
            Message::Goodbye
        );

        // Flip a payload byte: checksum catches it.
        let mut bent = socket.clone();
        let last = bent.len() - 1;
        bent[last] ^= 0xff;
        assert!(matches!(
            read_message(&mut &bent[..], DEFAULT_MAX_FRAME_LEN),
            Err(NetError::Checksum { .. })
        ));

        // A hostile length prefix is refused before allocation.
        let mut huge = socket;
        huge[..4].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(
            read_message(&mut &huge[..], DEFAULT_MAX_FRAME_LEN),
            Err(NetError::FrameTooLarge { len: u32::MAX, .. })
        ));
    }

    #[test]
    fn hostile_event_count_does_not_balloon_capacity() {
        // A batch declaring u32::MAX events with an empty body must fail
        // typed without attempting a u32::MAX-capacity allocation.
        let mut payload = Vec::new();
        wire::put_u8(&mut payload, 1);
        wire::put_u64(&mut payload, 1);
        wire::put_u32(&mut payload, u32::MAX);
        assert!(matches!(
            decode_message(&payload),
            Err(WireError::UnexpectedEof { .. })
        ));
    }

    #[test]
    fn spec_hash_separates_suites() {
        use asl_core::check::check;
        let standard = standard_spec_hash();
        assert_eq!(standard, spec_hash(&cosy::suite::standard_suite()));
        let tiny = check(&asl_core::parser::parse("").unwrap()).unwrap();
        assert_ne!(standard, spec_hash(&tiny));
    }
}
