//! The producer side: a reconnecting, windowed TCP event source.
//!
//! A [`TraceProducer`] assigns every offered event a sequence number
//! equal to its **position in the producer's stream** (1-based). That
//! identity is what makes restart exact: a restarted producer re-offers
//! its stream from the beginning, the handshake tells it the server's
//! last acknowledged sequence number, and [`TraceProducer::send`]
//! silently skips the already-acknowledged prefix — no duplicates, no
//! losses, no producer-side persistence needed beyond the ability to
//! replay its own stream.
//!
//! In flight, unacknowledged batches are retained (encoded) until their
//! ack arrives; a connection failure triggers reconnect-with-resume: the
//! new handshake's high-water mark drops whatever the server already
//! applied, the rest is resent, and the server deduplicates any overlap
//! by sequence number. Sends block once the in-flight window — the
//! smaller of the server's advertised window and its latest ack
//! headroom, floored at one batch — is full: backpressure propagates to
//! the producer instead of buffering unboundedly on either side.

use crate::error::NetError;
use crate::proto::{self, Hello, Message};
use faults::{FaultStream, Faults};
use obs::{MetricsSnapshot, MetricsSource};
use online::TraceEvent;
use std::collections::VecDeque;
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// The producer's socket, routed through the fault seam (an inert seam
/// is a zero-cost passthrough).
type ProducerStream = FaultStream<TcpStream>;

/// Producer configuration.
#[derive(Debug, Clone)]
pub struct ProducerConfig {
    /// Stable identity of this producer across restarts — the key of the
    /// server's resume registry. Two live producers must not share one.
    pub producer_id: u64,
    /// Hash of the suite this producer was built against (see
    /// [`proto::spec_hash`]); must match that of the suite the server's
    /// engine evaluates. Defaults to the standard suite.
    pub spec_hash: u64,
    /// Events per batch frame.
    pub batch_events: usize,
    /// Reconnect attempts before giving up.
    pub reconnect_attempts: u32,
    /// Base backoff before the first reconnect attempt. Subsequent waits
    /// use decorrelated jitter — each wait is drawn (deterministically,
    /// seeded by `producer_id`) from `[base, 3 × previous wait]`, capped
    /// at [`ProducerConfig::reconnect_backoff_cap`] — so a fleet of
    /// producers knocked over by one server restart does not stampede
    /// back in lockstep.
    pub reconnect_backoff: Duration,
    /// Ceiling on any single reconnect wait. `Duration::ZERO` means the
    /// default of one second.
    pub reconnect_backoff_cap: Duration,
    /// Wall-clock budget for one reconnect episode (sleeps included):
    /// once exceeded, the episode fails typed
    /// ([`NetError::ReconnectFailed`] with the elapsed time) even if
    /// attempts remain. `Duration::ZERO` disables the time budget —
    /// only [`ProducerConfig::reconnect_attempts`] bounds the episode.
    pub reconnect_max_elapsed: Duration,
    /// Cap on a received frame's payload length.
    pub max_frame_len: u32,
    /// Connect/read/write timeout. A dead peer that never sends a
    /// FIN/RST (host power loss, blackholed route) surfaces as a timed-
    /// out socket error and goes through the normal reconnect-with-
    /// resume path instead of hanging `send`/`flush` forever.
    /// `Duration::ZERO` disables timeouts.
    pub io_timeout: Duration,
    /// Optional message sets to offer at handshake (see
    /// [`proto::feature`]); the server masks this down to what it
    /// supports. Defaults to everything this build speaks.
    pub features: u8,
    /// Fault-injection seam for the producer's socket I/O. Inert by
    /// default; tests hand in a seeded [`faults::FaultPlan`]'s handle to
    /// exercise connection resets and partial writes deterministically.
    pub faults: Faults,
}

impl Default for ProducerConfig {
    fn default() -> Self {
        ProducerConfig {
            producer_id: 0,
            spec_hash: proto::standard_spec_hash(),
            batch_events: 256,
            reconnect_attempts: 5,
            reconnect_backoff: Duration::from_millis(25),
            reconnect_backoff_cap: Duration::from_secs(1),
            reconnect_max_elapsed: Duration::ZERO,
            max_frame_len: proto::DEFAULT_MAX_FRAME_LEN,
            io_timeout: Duration::from_secs(30),
            features: proto::FEATURES_SUPPORTED,
            faults: Faults::none(),
        }
    }
}

/// Producer-side counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NetStats {
    /// Events offered to [`TraceProducer::send`].
    pub events_offered: u64,
    /// Offered events skipped because the server had already
    /// acknowledged their sequence number (restart resume).
    pub events_skipped_resume: u64,
    /// Events written to the socket (resends included).
    pub events_sent: u64,
    /// Events acknowledged by the server.
    pub events_acked: u64,
    /// Events currently in flight (sent or buffered, not yet acked).
    pub events_inflight: u64,
    /// Batch frames written.
    pub batches_sent: u64,
    /// Acks received.
    pub acks_received: u64,
    /// Successful reconnects.
    pub reconnects: u64,
    /// Events rewritten after a reconnect (unacked at failure time).
    pub events_resent: u64,
    /// The server's most recent advertised headroom.
    pub server_headroom: u32,
}

impl MetricsSource for NetStats {
    fn collect_into(&self, out: &mut MetricsSnapshot) {
        // Exhaustive destructure: adding a NetStats field without
        // deciding its metric name breaks this build.
        let NetStats {
            events_offered,
            events_skipped_resume,
            events_sent,
            events_acked,
            events_inflight,
            batches_sent,
            acks_received,
            reconnects,
            events_resent,
            server_headroom,
        } = *self;
        out.push_counter("kojak_net_events_offered_total", events_offered);
        out.push_counter(
            "kojak_net_events_skipped_resume_total",
            events_skipped_resume,
        );
        out.push_counter("kojak_net_events_sent_total", events_sent);
        out.push_counter("kojak_net_events_acked_total", events_acked);
        out.push_counter("kojak_net_batches_sent_total", batches_sent);
        out.push_counter("kojak_net_acks_received_total", acks_received);
        out.push_counter("kojak_net_reconnects_total", reconnects);
        out.push_counter("kojak_net_events_resent_total", events_resent);
        out.push_gauge("kojak_net_events_inflight", events_inflight);
        out.push_gauge("kojak_net_server_headroom", u64::from(server_headroom));
    }
}

/// A batch written to the socket and awaiting its ack. Events are
/// retained as their wire encoding — `body` holds consecutive
/// `len u32 | event bytes` entries, exactly the EventBatch body layout,
/// and `offsets` marks where each entry starts — so shipping and
/// resending re-frame cached bytes instead of re-serializing, and a
/// partially acknowledged batch can be trimmed on an entry boundary.
#[derive(Debug, Clone)]
struct SentBatch {
    first_seq: u64,
    offsets: Vec<usize>,
    body: Vec<u8>,
}

impl SentBatch {
    fn count(&self) -> usize {
        self.offsets.len()
    }

    fn last_seq(&self) -> u64 {
        self.first_seq + self.count() as u64 - 1
    }

    /// The EventBatch frame payload for this batch.
    fn payload(&self) -> Vec<u8> {
        proto::event_batch_payload(self.first_seq, self.count() as u32, &self.body)
    }

    /// Drop the entries acknowledged through `high_water` (which the
    /// caller guarantees covers a proper, non-empty prefix). Returns how
    /// many entries were dropped.
    fn trim_acked(&mut self, high_water: u64) -> usize {
        let covered = (high_water - self.first_seq + 1) as usize;
        let cut = self.offsets[covered];
        self.body.drain(..cut);
        self.offsets.drain(..covered);
        for offset in &mut self.offsets {
            *offset -= cut;
        }
        self.first_seq = high_water + 1;
        covered
    }
}

/// A reconnecting producer connection to an [`crate::EngineServer`].
pub struct TraceProducer {
    addr: String,
    config: ProducerConfig,
    stream: Option<ProducerStream>,
    /// 1-based position of the last offered event == its sequence number.
    position: u64,
    /// High-water mark of acknowledged sequence numbers.
    acked: u64,
    /// Server-advertised window (events in flight) from the handshake.
    window: u32,
    /// Headroom from the latest ack.
    headroom: u32,
    /// Feature set negotiated at the latest handshake.
    features: u8,
    /// Entry offsets into `pending_body` — the unsent tail of the
    /// stream, already wire-encoded (see [`SentBatch`]).
    pending_offsets: Vec<usize>,
    pending_body: Vec<u8>,
    /// Shipped, unacknowledged batches, oldest first.
    unacked: VecDeque<SentBatch>,
    /// Monotone draw counter for the deterministic reconnect jitter:
    /// successive reconnect episodes draw fresh waits.
    backoff_draws: u64,
    stats: NetStats,
}

impl TraceProducer {
    /// Connect and handshake. On success the producer knows the server's
    /// last acknowledged sequence number for this `producer_id`:
    /// [`TraceProducer::resume_from`] events of a re-offered stream will
    /// be skipped instead of resent.
    pub fn connect(addr: impl Into<String>, config: ProducerConfig) -> Result<Self, NetError> {
        let addr = addr.into();
        let (stream, ack) = handshake(&addr, &config)?;
        Ok(TraceProducer {
            addr,
            position: 0,
            acked: ack.last_acked,
            window: ack.window,
            headroom: ack.window,
            features: ack.features,
            pending_offsets: Vec::new(),
            pending_body: Vec::new(),
            unacked: VecDeque::new(),
            backoff_draws: 0,
            stats: NetStats::default(),
            stream: Some(stream),
            config,
        })
    }

    /// The stream position (== sequence number) up to which the server
    /// has acknowledged this producer's events. A restarted producer
    /// re-offering its stream sees this many leading events skipped.
    pub fn resume_from(&self) -> u64 {
        self.acked
    }

    /// Producer-side counters.
    pub fn stats(&self) -> NetStats {
        let mut stats = self.stats;
        stats.events_inflight = self.inflight_events() as u64;
        stats.server_headroom = self.headroom;
        stats
    }

    /// The feature set negotiated at the latest handshake (see
    /// [`proto::feature`]).
    pub fn features(&self) -> u8 {
        self.features
    }

    /// Poll the server's live metric registry over the connection: the
    /// engine's merged metrics, the process-global eval-cache counters,
    /// and the server's own net-layer counters and stage histograms —
    /// exactly what [`crate::EngineServer::metrics`] returns locally.
    ///
    /// Requires [`proto::feature::INTROSPECT`] to have been negotiated
    /// ([`NetError::FeatureUnavailable`] otherwise). The pending batch is
    /// shipped first so the poll observes everything offered so far;
    /// acks arriving ahead of the report are processed normally. Socket
    /// failures surface directly — a poll is cheap to retry, so it does
    /// not go through reconnect-with-resume.
    pub fn introspect(&mut self) -> Result<MetricsSnapshot, NetError> {
        if self.features & proto::feature::INTROSPECT == 0 {
            return Err(NetError::FeatureUnavailable("introspect"));
        }
        self.ship_pending()?;
        let Some(stream) = self.stream.as_mut() else {
            return Err(NetError::Closed);
        };
        proto::write_message(stream, &Message::Introspect)?;
        loop {
            let Some(stream) = self.stream.as_mut() else {
                return Err(NetError::Closed);
            };
            match proto::read_message(stream, self.config.max_frame_len)? {
                Message::Ack(ack) => {
                    self.stats.acks_received += 1;
                    self.headroom = ack.headroom;
                    self.retire_acked(ack.high_water);
                }
                Message::MetricsReport(bytes) => {
                    return MetricsSnapshot::decode(&bytes).map_err(NetError::Snapshot)
                }
                other => {
                    return Err(NetError::UnexpectedMessage {
                        expected: "ack or metrics-report",
                        got: other.kind(),
                    })
                }
            }
        }
    }

    fn inflight_events(&self) -> usize {
        self.unacked.iter().map(|b| b.count()).sum()
    }

    /// The in-flight budget: the server's advertised window, tightened by
    /// its latest ack headroom, floored at one batch so the stream can
    /// always make progress (the next ack re-opens the window).
    fn inflight_budget(&self) -> usize {
        (self.window.min(self.headroom.max(1)) as usize).max(self.config.batch_events)
    }

    /// Offer the next event of the stream. Events already acknowledged by
    /// the server (restart resume) are skipped; otherwise the event joins
    /// the pending batch, and a full batch is shipped — **blocking** while
    /// the in-flight window is full (backpressure from a slow server
    /// propagates here instead of growing memory).
    pub fn send(&mut self, event: &TraceEvent) -> Result<(), NetError> {
        self.position += 1;
        self.stats.events_offered += 1;
        if self.position <= self.acked {
            self.stats.events_skipped_resume += 1;
            return Ok(());
        }
        self.pending_offsets.push(self.pending_body.len());
        proto::encode_batch_entry(&mut self.pending_body, event);
        if self.pending_offsets.len() >= self.config.batch_events.max(1) {
            self.ship_pending()?;
        }
        Ok(())
    }

    /// Ship the pending (possibly partial) batch, then block until every
    /// in-flight event is acknowledged. After `Ok`, the server has
    /// applied everything offered so far.
    pub fn flush(&mut self) -> Result<(), NetError> {
        self.ship_pending()?;
        while !self.unacked.is_empty() {
            self.read_ack()?;
        }
        Ok(())
    }

    /// Flush, say goodbye, and return the final counters. Waits for the
    /// server to close the connection, so on `Ok` the goodbye — and the
    /// engine flush riding on it — has been fully processed.
    pub fn close(mut self) -> Result<NetStats, NetError> {
        use std::io::Read;
        self.flush()?;
        if let Some(stream) = self.stream.as_mut() {
            proto::write_message(stream, &Message::Goodbye)?;
            let mut sink = [0u8; 64];
            while matches!(stream.read(&mut sink), Ok(n) if n > 0) {}
        }
        self.stream = None;
        Ok(self.stats())
    }

    fn ship_pending(&mut self) -> Result<(), NetError> {
        let pending = self.pending_offsets.len();
        if pending == 0 {
            return Ok(());
        }
        // Throttle: wait for acks while the window has no room for this
        // batch (as long as acks are owed; with nothing in flight the
        // budget floor always admits one batch).
        while !self.unacked.is_empty() && self.inflight_events() + pending > self.inflight_budget()
        {
            self.read_ack()?;
        }
        let batch = SentBatch {
            first_seq: self.position - pending as u64 + 1,
            offsets: std::mem::take(&mut self.pending_offsets),
            body: std::mem::take(&mut self.pending_body),
        };
        let frame = batch.payload();
        self.stats.events_sent += pending as u64;
        self.stats.batches_sent += 1;
        self.unacked.push_back(batch);
        self.write_or_reconnect(&frame)
    }

    /// Read one ack frame, retiring acknowledged batches; reconnects on
    /// socket failure.
    fn read_ack(&mut self) -> Result<(), NetError> {
        let message = loop {
            let Some(stream) = self.stream.as_mut() else {
                return Err(NetError::Closed);
            };
            match proto::read_message(stream, self.config.max_frame_len) {
                Ok(m) => break m,
                Err(e) if e.is_transient() => {
                    self.reconnect(e)?;
                    // The reconnect handshake may have acknowledged
                    // everything that was owed.
                    if self.unacked.is_empty() {
                        return Ok(());
                    }
                }
                Err(e) => return Err(e),
            }
        };
        match message {
            Message::Ack(ack) => {
                self.stats.acks_received += 1;
                self.headroom = ack.headroom;
                self.retire_acked(ack.high_water);
                Ok(())
            }
            other => Err(NetError::UnexpectedMessage {
                expected: "ack",
                got: other.kind(),
            }),
        }
    }

    /// Drop retained batches the server has acknowledged up to
    /// `high_water` (trimming a partially covered batch).
    fn retire_acked(&mut self, high_water: u64) {
        if high_water <= self.acked {
            return;
        }
        self.acked = high_water;
        while let Some(front) = self.unacked.front_mut() {
            if front.last_seq() <= high_water {
                self.stats.events_acked += front.count() as u64;
                self.unacked.pop_front();
            } else if front.first_seq <= high_water {
                self.stats.events_acked += front.trim_acked(high_water) as u64;
                break;
            } else {
                break;
            }
        }
    }

    fn write_or_reconnect(&mut self, frame: &[u8]) -> Result<(), NetError> {
        let Some(stream) = self.stream.as_mut() else {
            return Err(NetError::Closed);
        };
        match write_raw(stream, frame) {
            Ok(()) => Ok(()),
            // The failed frame is already retained in `unacked`:
            // reconnect resends everything still owed, this frame
            // included.
            Err(e) => self.reconnect(NetError::Io(e)),
        }
    }

    /// The next reconnect wait (see [`decorrelated_backoff`]): the
    /// monotone draw counter makes the schedule deterministic per
    /// producer while staying decorrelated across producers.
    fn next_backoff(&mut self, previous: Duration) -> Duration {
        self.backoff_draws += 1;
        decorrelated_backoff(
            self.config.producer_id,
            self.backoff_draws,
            previous,
            self.config.reconnect_backoff,
            self.config.reconnect_backoff_cap,
        )
    }

    /// Reconnect with jittered backoff under the configured attempt and
    /// elapsed-time budgets; on success, retire what the server's
    /// handshake says it already applied and resend the rest.
    fn reconnect(&mut self, first_failure: NetError) -> Result<(), NetError> {
        self.stream = None;
        let start = Instant::now();
        let budget = self.config.reconnect_max_elapsed;
        let mut last = first_failure;
        let mut backoff = self.config.reconnect_backoff;
        let mut attempts = 0u32;
        while attempts < self.config.reconnect_attempts {
            if !budget.is_zero() && start.elapsed() + backoff > budget {
                // Sleeping through the next wait would blow the time
                // budget: fail typed now rather than overshoot.
                break;
            }
            std::thread::sleep(backoff);
            backoff = self.next_backoff(backoff);
            attempts += 1;
            match handshake(&self.addr, &self.config) {
                Ok((mut stream, hello_ack)) => {
                    self.window = hello_ack.window;
                    self.headroom = hello_ack.window;
                    self.features = hello_ack.features;
                    self.retire_acked(hello_ack.last_acked);
                    match resend_all(&mut stream, &self.unacked) {
                        Ok(resent) => {
                            self.stats.events_resent += resent.0;
                            self.stats.events_sent += resent.0;
                            self.stats.batches_sent += resent.1;
                            self.stats.reconnects += 1;
                            self.stream = Some(stream);
                            return Ok(());
                        }
                        // The new socket died mid-resend: this attempt
                        // failed as a whole, try again.
                        Err(e) => last = NetError::Io(e),
                    }
                }
                // A refusal (spec mismatch, version skew, quarantine)
                // recurs on every attempt: surface it immediately.
                Err(e) if !e.is_transient() => return Err(e),
                Err(e) => last = e,
            }
        }
        Err(NetError::ReconnectFailed {
            attempts,
            elapsed: start.elapsed(),
            last: Box::new(last),
        })
    }
}

/// One step of the decorrelated-jitter reconnect backoff:
/// `min(cap, base + draw % (3 × previous − base))`, where `draw` is a
/// pure splitmix64 function of `(producer_id, draw_index)`.
///
/// Deterministic per producer (a failure schedule reproduces exactly
/// from the producer id), decorrelated across producers (no reconnect
/// stampede when a server restart cuts a fleet at once). A zero `cap`
/// means the 1 s default.
pub fn decorrelated_backoff(
    producer_id: u64,
    draw_index: u64,
    previous: Duration,
    base: Duration,
    cap: Duration,
) -> Duration {
    let cap = if cap.is_zero() {
        Duration::from_secs(1)
    } else {
        cap
    };
    let draw = faults::splitmix64(
        producer_id
            .wrapping_mul(0x9E3779B97F4A7C15)
            .wrapping_add(draw_index),
    );
    let base_ns = base.as_nanos().min(u64::MAX as u128) as u64;
    let span_ns = (previous.as_nanos().min(u64::MAX as u128) as u64)
        .saturating_mul(3)
        .saturating_sub(base_ns);
    let wait_ns = base_ns.saturating_add(if span_ns == 0 { 0 } else { draw % span_ns });
    Duration::from_nanos(wait_ns).min(cap)
}

/// Rewrite every retained batch on a fresh connection (cached bytes, no
/// re-serialization); returns (events, batches) resent.
fn resend_all(
    stream: &mut ProducerStream,
    unacked: &VecDeque<SentBatch>,
) -> std::io::Result<(u64, u64)> {
    let mut events = 0u64;
    let mut batches = 0u64;
    for batch in unacked {
        write_raw(stream, &batch.payload())?;
        events += batch.count() as u64;
        batches += 1;
    }
    Ok((events, batches))
}

fn write_raw(stream: &mut ProducerStream, payload: &[u8]) -> std::io::Result<()> {
    proto::write_frame(stream, payload)
}

/// Connect with the configured timeout (resolving `addr` may yield
/// several socket addresses; the first that connects wins).
fn connect_stream(addr: &str, timeout: Duration) -> std::io::Result<TcpStream> {
    use std::io;
    if timeout.is_zero() {
        return TcpStream::connect(addr);
    }
    use std::net::ToSocketAddrs;
    let mut last = io::Error::new(io::ErrorKind::InvalidInput, "address resolved to nothing");
    for sock_addr in addr.to_socket_addrs()? {
        match TcpStream::connect_timeout(&sock_addr, timeout) {
            Ok(stream) => return Ok(stream),
            Err(e) => last = e,
        }
    }
    Err(last)
}

/// TCP connect + handshake; refusals come back typed.
fn handshake(
    addr: &str,
    config: &ProducerConfig,
) -> Result<(ProducerStream, proto::HelloAck), NetError> {
    use std::io::{Read, Write};
    let stream = connect_stream(addr, config.io_timeout)?;
    let _ = stream.set_nodelay(true);
    if !config.io_timeout.is_zero() {
        stream.set_read_timeout(Some(config.io_timeout))?;
        stream.set_write_timeout(Some(config.io_timeout))?;
    }
    let mut stream = FaultStream::new(stream, &config.faults);
    stream.write_all(&proto::encode_hello(&Hello {
        producer_id: config.producer_id,
        spec_hash: config.spec_hash,
        features: config.features,
    }))?;
    let mut reply = [0u8; proto::HELLO_ACK_LEN];
    stream.read_exact(&mut reply)?;
    let ack = proto::decode_hello_ack(&reply)?;
    match ack.status {
        proto::status::ACCEPTED => Ok((stream, ack)),
        proto::status::SPEC_MISMATCH => Err(NetError::SpecMismatch {
            client: config.spec_hash,
            server: ack.spec_hash,
        }),
        proto::status::UNSUPPORTED_PROTOCOL => {
            Err(NetError::UnsupportedProtocol(proto::PROTO_VERSION))
        }
        proto::status::QUARANTINED => Err(NetError::Quarantined),
        code => Err(NetError::Refused(code)),
    }
}
