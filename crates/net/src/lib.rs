//! # `kojak-net` — the framed TCP wire protocol
//!
//! The paper's premise is that COSY/ASL-specified analysis runs against
//! trace data produced by **real monitors**: instrumented processes on
//! other machines, not in-process fixtures. This crate is that seam — a
//! length-prefixed, CRC-32-checksummed, versioned frame protocol over
//! TCP carrying [`online::TraceEvent`]s, promoting the codec the
//! write-ahead log already trusts ([`online::wire`]) from a durability
//! detail to a network protocol.
//!
//! ```text
//!  TraceProducer ──TCP──▶ ┐
//!  TraceProducer ──TCP──▶ ├─ EngineServer ──▶ any AnalysisEngine
//!  TraceProducer ──TCP──▶ ┘   (seq dedup,      (batch / online /
//!    (windowed,                ack+headroom)    durable / sharded)
//!     reconnecting)
//! ```
//!
//! * [`EngineServer`] accepts N producer connections and routes decoded
//!   events into any [`engine::AnalysisEngine`] — one binary fronts every
//!   deployment shape [`engine::EngineBuilder`] can produce, including
//!   the shard-per-WAL [`engine::ShardedSession`].
//! * [`TraceProducer`] is the client: batched sends, a bounded in-flight
//!   window throttled by the server's ack headroom (backpressure instead
//!   of unbounded buffering), and reconnect-with-resume — the handshake
//!   returns the last acknowledged sequence number, so a producer restart
//!   never duplicates or drops an event (the server additionally
//!   deduplicates by sequence number under the producer's lock).
//! * The handshake exchanges a **spec hash** ([`proto::spec_hash`]): the
//!   server's is that of the suite its engine serves
//!   ([`engine::AnalysisEngine::spec`], asked at bind — not a setting), a
//!   producer's is configured ([`ProducerConfig::spec_hash`], it being a
//!   remote build). A producer built against a different property suite
//!   is refused with a typed [`NetError::SpecMismatch`] instead of
//!   silently feeding a server that would analyze its events differently.
//! * The handshake also negotiates **optional message sets** as a
//!   feature bitmask ([`proto::feature`]) — unknown bits are masked, not
//!   refused, so additions like the [`proto::Message::Introspect`] poll
//!   (answered with the server's live [`obs::MetricsSnapshot`], see
//!   [`TraceProducer::introspect`]) never force a hard version mismatch.
//!
//! Frame layout, handshake bytes, and message formats are documented in
//! [`proto`]; every failure mode is a typed [`NetError`].

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod client;
pub mod error;
pub mod proto;
pub mod server;

pub use client::{decorrelated_backoff, NetStats, ProducerConfig, TraceProducer};
pub use error::NetError;
pub use proto::{
    feature, spec_hash, standard_spec_hash, Ack, Message, FEATURES_SUPPORTED, PROTO_VERSION,
};
pub use server::{EngineServer, ServerConfig, ServerStats};
