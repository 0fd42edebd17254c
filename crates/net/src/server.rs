//! The server side: accept N producer connections, route decoded events
//! into any [`AnalysisEngine`].
//!
//! One [`EngineServer`] fronts one engine — batch, online, durable, or
//! sharded, anything [`engine::EngineBuilder`] can produce — so the whole
//! deployment matrix of PR 4 is reachable from remote producers through
//! one binary. Each accepted connection is handled by its own thread;
//! per-producer state (the last acknowledged sequence number) lives in a
//! registry shared across connections, which is what makes
//! reconnect-and-resume exact: a batch arriving twice (the producer never
//! saw the ack) is deduplicated by sequence number *under the producer's
//! lock*, so not even a race between a dying connection and its
//! replacement can apply an event twice.

use crate::error::NetError;
use crate::proto::{self, Ack, HelloAck, Message};
use engine::AnalysisEngine;
use obs::{MetricsRegistry, MetricsSnapshot, MetricsSource};
use std::collections::HashMap;
use std::io::Read;
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;

/// Server configuration.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Maximum events a producer should keep in flight; advertised at
    /// handshake and re-advertised (minus current queue depth) as the
    /// headroom of every ack.
    pub window: u32,
    /// Flush the engine once this many events have been applied since
    /// the last flush (0: flush only on goodbye/disconnect). The gap
    /// between applied and flushed events is the "queue" the ack headroom
    /// reports.
    pub flush_every_events: u64,
    /// Cap on a frame's payload length.
    pub max_frame_len: u32,
    /// Deadline for a connection to complete its handshake. A peer that
    /// connects and then trickles (or never sends) its hello — the
    /// slowloris shape — is dropped when it expires instead of pinning a
    /// handler thread forever. `Duration::ZERO` disables the deadline.
    pub handshake_timeout: std::time::Duration,
    /// Reap a connection that has sent nothing for this long (counted in
    /// [`ServerStats::connections_reaped_idle`]; the producer's resume
    /// state is kept, so a live producer simply reconnects). A timeout
    /// that expires *mid-frame* also reaps — a peer dribbling one byte
    /// per frame period is indistinguishable from a dead one.
    /// `Duration::ZERO` disables reaping.
    pub idle_timeout: std::time::Duration,
    /// Quarantine a producer after this many protocol errors
    /// (undecodable frames, checksum mismatches, state-machine
    /// violations) across its connections: subsequent handshakes are
    /// refused with [`proto::status::QUARANTINED`] until
    /// [`crate::EngineServer::clear_quarantine`]. 0 disables quarantine.
    pub max_producer_protocol_errors: u32,
    /// Fault-injection seam for accepted sockets' I/O. Inert by default.
    pub faults: faults::Faults,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            window: 4096,
            flush_every_events: 2048,
            max_frame_len: proto::DEFAULT_MAX_FRAME_LEN,
            handshake_timeout: std::time::Duration::from_secs(10),
            idle_timeout: std::time::Duration::ZERO,
            max_producer_protocol_errors: 8,
            faults: faults::Faults::none(),
        }
    }
}

/// Net-layer counters of a server (engine-level counters — applied,
/// rejected, flushes — live in the engine's own
/// [`online::SessionStats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServerStats {
    /// Connections accepted (handshake completed successfully).
    pub connections_accepted: u64,
    /// Handshakes refused (bad magic, version skew, spec mismatch).
    pub handshakes_refused: u64,
    /// Event batches received.
    pub batches_received: u64,
    /// Events received over all batches.
    pub events_received: u64,
    /// Bytes of every frame read and verified, headers included.
    pub frame_bytes_received: u64,
    /// Events dropped as duplicates of an already-acknowledged sequence
    /// number (producer resend after a lost ack).
    pub events_deduplicated: u64,
    /// Connections dropped for malformed frames/messages.
    pub protocol_errors: u64,
    /// Connections dropped because the engine refused a whole batch
    /// (e.g. a WAL append failure on a durable engine) — the batch was
    /// **not** acknowledged, so the producer's reconnect resends it.
    pub ingest_failures: u64,
    /// Producers that ended their stream with a goodbye.
    pub goodbyes: u64,
    /// Connections reaped for silence: the handshake deadline or idle
    /// timeout expired (see [`ServerConfig`]).
    pub connections_reaped_idle: u64,
    /// Producers quarantined for repeated protocol errors.
    pub producers_quarantined: u64,
}

impl MetricsSource for ServerStats {
    fn collect_into(&self, out: &mut MetricsSnapshot) {
        // Exhaustive destructure: adding a ServerStats field without
        // deciding its metric name breaks this build.
        let ServerStats {
            connections_accepted,
            handshakes_refused,
            batches_received,
            events_received,
            frame_bytes_received,
            events_deduplicated,
            protocol_errors,
            ingest_failures,
            goodbyes,
            connections_reaped_idle,
            producers_quarantined,
        } = *self;
        out.push_counter("kojak_net_connections_accepted_total", connections_accepted);
        out.push_counter("kojak_net_handshakes_refused_total", handshakes_refused);
        out.push_counter("kojak_net_batches_received_total", batches_received);
        out.push_counter("kojak_net_events_received_total", events_received);
        out.push_counter("kojak_net_frame_bytes_received_total", frame_bytes_received);
        out.push_counter("kojak_net_events_deduplicated_total", events_deduplicated);
        out.push_counter("kojak_net_protocol_errors_total", protocol_errors);
        out.push_counter("kojak_net_ingest_failures_total", ingest_failures);
        out.push_counter("kojak_net_goodbyes_total", goodbyes);
        out.push_counter(
            "kojak_net_connections_reaped_idle_total",
            connections_reaped_idle,
        );
        out.push_counter(
            "kojak_net_producers_quarantined_total",
            producers_quarantined,
        );
    }
}

/// Per-producer resume state, shared by every connection that producer
/// (re)opens.
#[derive(Debug, Default)]
struct ProducerSlot {
    /// Highest sequence number applied and acknowledged.
    last_acked: u64,
    /// Protocol errors attributed to this producer across all of its
    /// connections.
    protocol_errors: u64,
    /// Refuses this producer's handshakes once set (see
    /// [`ServerConfig::max_producer_protocol_errors`]).
    quarantined: bool,
}

struct ServerInner {
    /// [`proto::spec_hash`] of the suite `engine` evaluates, taken from
    /// the engine at bind: producers with a different hash are refused at
    /// handshake.
    spec_hash: u64,
    engine: Arc<dyn AnalysisEngine>,
    config: ServerConfig,
    producers: Mutex<HashMap<u64, Arc<Mutex<ProducerSlot>>>>,
    /// Events applied since the engine was last flushed — the "queue"
    /// behind the ack headroom.
    pending_events: AtomicU64,
    /// Serializes engine flushes (concurrent handlers skip rather than
    /// stack up behind one).
    flush_gate: Mutex<()>,
    stats: Mutex<ServerStats>,
    shutdown: AtomicBool,
    /// Live accepted sockets keyed by connection id, so shutdown (and
    /// [`EngineServer::sever_connections`]) can unblock their readers.
    /// Each handler removes its own entry on exit — a long-running
    /// server does not leak one fd per reconnect.
    conns: Mutex<HashMap<u64, TcpStream>>,
    next_conn_id: AtomicU64,
    /// Net-layer stage histograms (frame decode, message handling).
    registry: MetricsRegistry,
    decode_ns: Arc<obs::Histogram>,
    handle_ns: Arc<obs::Histogram>,
}

impl ServerInner {
    fn slot(&self, producer_id: u64) -> Arc<Mutex<ProducerSlot>> {
        let mut producers = self.producers.lock().unwrap_or_else(|e| e.into_inner());
        Arc::clone(producers.entry(producer_id).or_default())
    }

    fn stats(&self) -> std::sync::MutexGuard<'_, ServerStats> {
        self.stats.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Record a protocol error against a producer, quarantining it once
    /// the configured threshold is crossed.
    fn note_protocol_error(&self, slot: &Arc<Mutex<ProducerSlot>>) {
        self.stats().protocol_errors += 1;
        let max = self.config.max_producer_protocol_errors;
        if max == 0 {
            return;
        }
        let mut producer = slot.lock().unwrap_or_else(|e| e.into_inner());
        producer.protocol_errors += 1;
        if !producer.quarantined && producer.protocol_errors >= u64::from(max) {
            producer.quarantined = true;
            self.stats().producers_quarantined += 1;
        }
    }

    fn headroom(&self) -> u32 {
        let pending = self.pending_events.load(Ordering::Relaxed);
        self.config
            .window
            .saturating_sub(pending.min(u32::MAX as u64) as u32)
    }

    /// Flush the engine if the applied-but-unflushed queue crossed the
    /// configured threshold (or unconditionally, at stream end).
    fn maybe_flush(&self, force: bool) {
        let threshold = self.config.flush_every_events;
        let due =
            force || (threshold > 0 && self.pending_events.load(Ordering::Relaxed) >= threshold);
        if !due {
            return;
        }
        let gate = if force {
            Some(self.flush_gate.lock().unwrap_or_else(|e| e.into_inner()))
        } else {
            self.flush_gate.try_lock().ok()
        };
        if gate.is_some() {
            // A failed flush re-queues its delta inside the engine and
            // resurfaces typed on the next flush; the server keeps
            // serving (and the headroom stays shrunk, throttling
            // producers while the engine is wedged). Subtract the
            // snapshot taken *before* the flush rather than zeroing:
            // events a concurrent handler applies mid-flush must keep
            // their claim on the next threshold flush.
            let covered = self.pending_events.load(Ordering::Relaxed);
            if self.engine.flush().is_ok() {
                self.pending_events.fetch_sub(covered, Ordering::Relaxed);
            }
        }
    }

    /// The whole stack's metric snapshot, assembled top-down: the
    /// engine's per-shard-merged metrics, the process-global compiled-eval
    /// cache counters (added exactly once, **here** — see
    /// [`online::eval_cache_metrics`]), the net-layer counters, and the
    /// net-layer stage histograms.
    fn metrics_snapshot(&self) -> MetricsSnapshot {
        let mut out = self.engine.metrics();
        out.merge(&online::eval_cache_metrics());
        self.stats().collect_into(&mut out);
        self.registry.collect_into(&mut out);
        out.push_gauge(
            "kojak_net_pending_flush_events",
            self.pending_events.load(Ordering::Relaxed),
        );
        out
    }
}

/// A TCP front-end feeding one [`AnalysisEngine`].
pub struct EngineServer {
    inner: Arc<ServerInner>,
    addr: SocketAddr,
    accept: Option<JoinHandle<Vec<JoinHandle<()>>>>,
}

impl EngineServer {
    /// Bind `addr` (e.g. `"127.0.0.1:0"` for an ephemeral port) and start
    /// accepting producer connections into `engine`. The spec hash the
    /// handshake checks is that of [`AnalysisEngine::spec`] — the suite
    /// actually served, not one configured beside it.
    pub fn bind(
        addr: impl ToSocketAddrs,
        engine: Arc<dyn AnalysisEngine>,
        config: ServerConfig,
    ) -> Result<EngineServer, NetError> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let registry = MetricsRegistry::default();
        let decode_ns = registry.histogram("kojak_net_decode_ns");
        let handle_ns = registry.histogram("kojak_net_handle_ns");
        let inner = Arc::new(ServerInner {
            spec_hash: proto::spec_hash(&engine.spec()),
            engine,
            config,
            producers: Mutex::new(HashMap::new()),
            pending_events: AtomicU64::new(0),
            flush_gate: Mutex::new(()),
            stats: Mutex::new(ServerStats::default()),
            shutdown: AtomicBool::new(false),
            conns: Mutex::new(HashMap::new()),
            next_conn_id: AtomicU64::new(0),
            registry,
            decode_ns,
            handle_ns,
        });
        let accept_inner = Arc::clone(&inner);
        let accept = std::thread::spawn(move || accept_loop(listener, accept_inner));
        Ok(EngineServer {
            inner,
            addr,
            accept: Some(accept),
        })
    }

    /// The bound address (with the concrete port for `:0` binds).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The engine this server feeds.
    pub fn engine(&self) -> &Arc<dyn AnalysisEngine> {
        &self.inner.engine
    }

    /// Net-layer counters.
    pub fn stats(&self) -> ServerStats {
        *self.inner.stats()
    }

    /// The whole stack's metric snapshot — exactly what an
    /// [`crate::proto::Message::Introspect`] poll over the wire returns:
    /// engine metrics (merged over shards), the process-global
    /// compiled-eval cache counters (added exactly once here), net-layer
    /// counters, and net-layer stage histograms.
    pub fn metrics(&self) -> MetricsSnapshot {
        self.inner.metrics_snapshot()
    }

    /// The last sequence number acknowledged to `producer_id` (0 for an
    /// unknown producer).
    pub fn last_acked(&self, producer_id: u64) -> u64 {
        self.inner
            .producers
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .get(&producer_id)
            .map(|slot| slot.lock().unwrap_or_else(|e| e.into_inner()).last_acked)
            .unwrap_or(0)
    }

    /// Producer ids currently quarantined for repeated protocol errors
    /// (their handshakes are refused with
    /// [`proto::status::QUARANTINED`]).
    pub fn quarantined_producers(&self) -> Vec<u64> {
        let producers = self
            .inner
            .producers
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        let mut out: Vec<u64> = producers
            .iter()
            .filter(|(_, slot)| slot.lock().unwrap_or_else(|e| e.into_inner()).quarantined)
            .map(|(id, _)| *id)
            .collect();
        out.sort_unstable();
        out
    }

    /// Lift a producer's quarantine (its protocol-error count restarts
    /// from zero). Returns whether the producer was quarantined.
    pub fn clear_quarantine(&self, producer_id: u64) -> bool {
        let producers = self
            .inner
            .producers
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        let Some(slot) = producers.get(&producer_id) else {
            return false;
        };
        let mut slot = slot.lock().unwrap_or_else(|e| e.into_inner());
        let was = slot.quarantined;
        slot.quarantined = false;
        slot.protocol_errors = 0;
        was
    }

    /// Forcibly shut down every accepted producer connection (a fault
    /// lever for tests and operators). Producers observe a socket error
    /// and go through reconnect-with-resume; nothing is lost. Returns
    /// how many sockets were severed.
    pub fn sever_connections(&self) -> usize {
        let mut conns = self.inner.conns.lock().unwrap_or_else(|e| e.into_inner());
        for conn in conns.values() {
            let _ = conn.shutdown(Shutdown::Both);
        }
        let severed = conns.len();
        conns.clear();
        severed
    }

    /// Stop accepting, unblock and join every connection handler, flush
    /// the engine one final time.
    pub fn shutdown(mut self) {
        self.shutdown_inner();
    }

    fn shutdown_inner(&mut self) {
        let Some(accept) = self.accept.take() else {
            return;
        };
        self.inner.shutdown.store(true, Ordering::SeqCst);
        // Unblock the accept loop with a throwaway connection, and every
        // handler blocked in a read with a socket shutdown.
        let _ = TcpStream::connect(self.addr);
        for conn in self
            .inner
            .conns
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .values()
        {
            let _ = conn.shutdown(Shutdown::Both);
        }
        if let Ok(handlers) = accept.join() {
            for h in handlers {
                let _ = h.join();
            }
        }
        self.inner.maybe_flush(true);
    }
}

impl Drop for EngineServer {
    fn drop(&mut self) {
        self.shutdown_inner();
    }
}

fn accept_loop(listener: TcpListener, inner: Arc<ServerInner>) -> Vec<JoinHandle<()>> {
    let mut handlers: Vec<JoinHandle<()>> = Vec::new();
    for stream in listener.incoming() {
        if inner.shutdown.load(Ordering::SeqCst) {
            break;
        }
        // Bound growth across reconnect churn: handlers whose
        // connection ended are detached (their conn-map entry is gone
        // already — each handler removes its own on exit).
        handlers.retain(|h| !h.is_finished());
        let Ok(stream) = stream else { continue };
        let _ = stream.set_nodelay(true);
        let conn_id = inner.next_conn_id.fetch_add(1, Ordering::Relaxed);
        if let Ok(clone) = stream.try_clone() {
            inner
                .conns
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .insert(conn_id, clone);
        }
        let conn_inner = Arc::clone(&inner);
        handlers.push(std::thread::spawn(move || {
            let _ = handle_connection(stream, &conn_inner);
            conn_inner
                .conns
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .remove(&conn_id);
        }));
    }
    handlers
}

/// True for the socket errors a `SO_RCVTIMEO` expiry surfaces as.
fn is_timeout(e: &std::io::Error) -> bool {
    matches!(
        e.kind(),
        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
    )
}

/// Handshake, then the frame loop, for one producer connection. Any
/// [`NetError`] terminates the connection (counted in
/// [`ServerStats::protocol_errors`] when the peer misbehaved).
fn handle_connection(stream: TcpStream, inner: &ServerInner) -> Result<(), NetError> {
    // --- handshake ------------------------------------------------------
    // Slowloris guard: the hello must arrive within its deadline — a
    // peer that connects and goes silent must not pin a handler thread.
    if !inner.config.handshake_timeout.is_zero() {
        let _ = stream.set_read_timeout(Some(inner.config.handshake_timeout));
    }
    let mut stream = faults::FaultStream::new(stream, &inner.config.faults);
    // Read the version-bearing prefix first: a v1 producer's hello is
    // exactly this long, so waiting for a full v2 hello would deadlock
    // against it. The feature byte is consumed only from a peer whose
    // version says it sent one.
    let mut prefix_bytes = [0u8; proto::HELLO_PREFIX_LEN];
    if let Err(e) = stream.read_exact(&mut prefix_bytes) {
        // The shutdown poke (or a port scanner) — not a protocol error;
        // an expired handshake deadline is counted as a reap.
        if is_timeout(&e) {
            inner.stats().connections_reaped_idle += 1;
        }
        return Err(NetError::Closed);
    }
    let (version, mut hello) = match proto::decode_hello_prefix(&prefix_bytes) {
        Ok(decoded) => decoded,
        Err(e) => {
            inner.stats().handshakes_refused += 1;
            return Err(e);
        }
    };
    let known = (proto::MIN_PROTO_VERSION..=proto::PROTO_VERSION).contains(&version);
    if known {
        let mut features_byte = [0u8; 1];
        if stream.read_exact(&mut features_byte).is_err() {
            return Err(NetError::Closed);
        }
        hello.features = features_byte[0];
    }
    // Unknown feature bits are masked, not refused: an older server
    // simply answers with fewer features and a newer producer degrades.
    let features = hello.features & proto::FEATURES_SUPPORTED;
    let slot = inner.slot(hello.producer_id);
    let (last_acked, quarantined) = {
        let producer = slot.lock().unwrap_or_else(|e| e.into_inner());
        (producer.last_acked, producer.quarantined)
    };
    let refusal = if !known {
        Some(proto::status::UNSUPPORTED_PROTOCOL)
    } else if hello.spec_hash != inner.spec_hash {
        Some(proto::status::SPEC_MISMATCH)
    } else if quarantined {
        Some(proto::status::QUARANTINED)
    } else {
        None
    };
    let reply = HelloAck {
        // An accepted producer is answered in its own version.
        version: if known { version } else { proto::PROTO_VERSION },
        status: refusal.unwrap_or(proto::status::ACCEPTED),
        spec_hash: inner.spec_hash,
        last_acked,
        window: inner.config.window,
        features,
    };
    // Count before replying: the peer acts on the reply the instant it
    // lands, and may query server counters right after.
    {
        let mut stats = inner.stats();
        match refusal {
            Some(_) => stats.handshakes_refused += 1,
            None => stats.connections_accepted += 1,
        }
    }
    std::io::Write::write_all(&mut stream, &proto::encode_hello_ack(&reply))?;
    if let Some(code) = refusal {
        return Err(NetError::Refused(code));
    }
    // Handshake done: switch the socket to the idle-reaping regime.
    let idle = inner.config.idle_timeout;
    let _ = stream
        .get_ref()
        .set_read_timeout(if idle.is_zero() { None } else { Some(idle) });

    // --- frame loop -----------------------------------------------------
    // One decode arena per connection: the frame payload buffer and the
    // event vectors are reused across frames, each batch decoded over the
    // events of an earlier one, so the steady-state decode → handle path
    // allocates nothing per batch or per event.
    let mut arena = proto::DecodeArena::new();
    loop {
        // The blocking socket read stays outside the decode timer — it
        // measures producer idle time, not decode work.
        match arena.read_frame(&mut stream, inner.config.max_frame_len) {
            Ok(()) => inner.stats().frame_bytes_received += arena.frame_len() as u64,
            Err(NetError::Io(e)) if is_timeout(&e) && !idle.is_zero() => {
                // Idle (or dribbling) producer: reap the connection. Its
                // resume state is kept — a live producer reconnects and
                // resumes exactly.
                inner.stats().connections_reaped_idle += 1;
                inner.maybe_flush(true);
                return Ok(());
            }
            Err(NetError::Io(_)) | Err(NetError::Closed) => {
                // Producer died (or was killed): flush what it sent so
                // live reports reflect everything acknowledged.
                inner.maybe_flush(true);
                return Ok(());
            }
            Err(e) => {
                inner.note_protocol_error(&slot);
                return Err(e);
            }
        };
        let decoded = {
            let _stage = inner.decode_ns.start_timer();
            arena.decode()
        };
        let message = match decoded {
            Ok(m) => m,
            Err(e) => {
                inner.note_protocol_error(&slot);
                return Err(NetError::Wire(e));
            }
        };
        let _handle_stage = inner.handle_ns.start_timer();
        match message {
            Message::EventBatch { first_seq, events } => {
                let count = events.len() as u64;
                {
                    let mut stats = inner.stats();
                    stats.batches_received += 1;
                    stats.events_received += count;
                }
                // Dedup + apply + ack bookkeeping under the producer's
                // lock: a resend racing the original connection cannot
                // apply twice.
                let mut slot = slot.lock().unwrap_or_else(|e| e.into_inner());
                let last_seq = first_seq.saturating_add(count).saturating_sub(1);
                let fresh_from = slot.last_acked.saturating_add(1).max(first_seq);
                let skip = (fresh_from - first_seq) as usize;
                if skip > 0 {
                    let dup = skip.min(events.len()) as u64;
                    inner.stats().events_deduplicated += dup;
                }
                let fresh = &events[skip.min(events.len())..];
                if !fresh.is_empty() {
                    // Per-event rejections (unknown run/region, duplicate
                    // RunStarted) are isolated inside the engine: counted,
                    // the rest of the batch applies, and resending would
                    // only reject again — so the sequence still advances.
                    // A *batch-level* failure (a WAL append error on a
                    // durable engine applied nothing) must NOT be
                    // acknowledged: drop the connection instead, so the
                    // producer's reconnect resends the batch once the
                    // engine recovers. (For a sharded engine one shard may
                    // have applied its sub-batch; the resend converges —
                    // timing refinements are overwrite-idempotent and
                    // duplicate RunStarted events are rejected-and-counted,
                    // never applied twice.)
                    // A whole batch frame goes down as received, so a
                    // durable engine logs its bytes as they are; a
                    // deduplicated tail (or a version-2 entry batch) as
                    // events.
                    let ingested = match arena.framed(&events) {
                        Some(batch) if skip == 0 => inner.engine.ingest_framed(batch),
                        _ => inner.engine.ingest_batch(fresh),
                    };
                    if let Err(e) = ingested {
                        if e.failed_wholesale() {
                            inner.stats().ingest_failures += 1;
                            return Err(NetError::Engine(e));
                        }
                    }
                    inner
                        .pending_events
                        .fetch_add(fresh.len() as u64, Ordering::Relaxed);
                }
                slot.last_acked = slot.last_acked.max(last_seq);
                let ack = Message::Ack(Ack {
                    high_water: slot.last_acked,
                    headroom: inner.headroom(),
                });
                drop(slot);
                inner.maybe_flush(false);
                proto::write_message(&mut stream, &ack)?;
                arena.recycle(events);
            }
            Message::Goodbye => {
                inner.stats().goodbyes += 1;
                inner.maybe_flush(true);
                // Socket-level shutdown (the accept loop holds a clone of
                // this fd, so a plain drop would not signal EOF): the
                // producer's graceful close waits for this as its barrier
                // that the goodbye — flush included — was processed.
                let _ = stream.get_ref().shutdown(Shutdown::Both);
                return Ok(());
            }
            Message::Introspect => {
                if features & proto::feature::INTROSPECT == 0 {
                    inner.note_protocol_error(&slot);
                    return Err(NetError::FeatureUnavailable("introspect"));
                }
                let report = Message::MetricsReport(inner.metrics_snapshot().encode());
                proto::write_message(&mut stream, &report)?;
            }
            other @ (Message::Ack(_) | Message::MetricsReport(_)) => {
                inner.note_protocol_error(&slot);
                return Err(NetError::UnexpectedMessage {
                    expected: "event-batch, introspect or goodbye",
                    got: other.kind(),
                });
            }
        }
    }
}
