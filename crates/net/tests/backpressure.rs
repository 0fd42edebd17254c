//! Backpressure: a slow server makes [`TraceProducer::send`] *block* on
//! a bounded in-flight window instead of growing memory, and the
//! producer's counters stay exact across a forced reconnect.

use engine::{AnalysisEngine, EngineError, RecoverableState};
use net::{EngineServer, ProducerConfig, ServerConfig, TraceProducer};
use online::{RunKey, SessionStats, TraceEvent};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// An engine whose every ingest dawdles — the "slow consumer" the
/// protocol must throttle against — wrapping a real online session so
/// reports still work.
struct SlowEngine {
    inner: engine::Engine,
    delay: Duration,
    batches: AtomicU64,
}

impl SlowEngine {
    fn new(delay: Duration) -> Self {
        SlowEngine {
            inner: engine::EngineBuilder::new().build().expect("online engine"),
            delay,
            batches: AtomicU64::new(0),
        }
    }
}

impl AnalysisEngine for SlowEngine {
    fn ingest_batch(&self, events: &[TraceEvent]) -> Result<usize, EngineError> {
        std::thread::sleep(self.delay);
        self.batches.fetch_add(1, Ordering::Relaxed);
        self.inner.ingest_batch(events)
    }

    fn flush(&self) -> Result<Vec<RunKey>, EngineError> {
        self.inner.flush()
    }

    fn report(&self, run: RunKey) -> Option<cosy::AnalysisReport> {
        self.inner.report(run)
    }

    fn reports(&self) -> HashMap<RunKey, cosy::AnalysisReport> {
        self.inner.reports()
    }

    fn stats(&self) -> SessionStats {
        self.inner.stats()
    }

    fn recoverable_state(&self) -> RecoverableState {
        self.inner.recoverable_state()
    }

    fn checkpoint(&self) -> Result<(), EngineError> {
        self.inner.checkpoint()
    }
}

fn sim_events() -> Vec<TraceEvent> {
    testkit::Scenario {
        pes: vec![1, 4, 16],
        ..testkit::Scenario::new(3)
    }
    .events()
}

/// A batch-level engine failure (a durable engine whose WAL append
/// failed applied *nothing*) must not be acknowledged: the server drops
/// the connection instead, the producer reconnects and resends, and no
/// event is lost once the engine recovers.
#[test]
fn wholesale_ingest_failure_is_not_acked_and_resends() {
    use online::IngestError;

    /// Fails the first `failures` ingest calls wholesale (as a WAL
    /// append error would), then delegates.
    struct FlakyEngine {
        inner: engine::Engine,
        remaining_failures: AtomicU64,
    }

    impl AnalysisEngine for FlakyEngine {
        fn ingest_batch(&self, events: &[TraceEvent]) -> Result<usize, EngineError> {
            if self
                .remaining_failures
                .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |n| n.checked_sub(1))
                .is_ok()
            {
                return Err(EngineError::Ingest(IngestError::Wal(faults::IoFailure {
                    op: faults::Op::WalAppend,
                    source: Arc::new(std::io::Error::other("injected append failure")),
                })));
            }
            self.inner.ingest_batch(events)
        }
        fn flush(&self) -> Result<Vec<RunKey>, EngineError> {
            self.inner.flush()
        }
        fn report(&self, run: RunKey) -> Option<cosy::AnalysisReport> {
            self.inner.report(run)
        }
        fn reports(&self) -> HashMap<RunKey, cosy::AnalysisReport> {
            self.inner.reports()
        }
        fn stats(&self) -> SessionStats {
            self.inner.stats()
        }
        fn recoverable_state(&self) -> RecoverableState {
            self.inner.recoverable_state()
        }
        fn checkpoint(&self) -> Result<(), EngineError> {
            self.inner.checkpoint()
        }
    }

    let events = sim_events();
    let engine = Arc::new(FlakyEngine {
        inner: engine::EngineBuilder::new().build().expect("engine"),
        remaining_failures: AtomicU64::new(2),
    });
    let server = EngineServer::bind(
        "127.0.0.1:0",
        Arc::clone(&engine) as Arc<dyn AnalysisEngine>,
        ServerConfig::default(),
    )
    .expect("bind");

    let mut producer = TraceProducer::connect(
        server.local_addr().to_string(),
        ProducerConfig {
            producer_id: 1,
            batch_events: 16,
            reconnect_backoff: Duration::from_millis(5),
            ..ProducerConfig::default()
        },
    )
    .expect("connect");
    for event in &events {
        producer.send(event).expect("send");
    }
    let stats = producer.close().expect("close");

    // The injected failures forced reconnect-and-resend; nothing lost.
    assert!(stats.reconnects >= 1, "failure forced a reconnect");
    assert!(stats.events_resent >= 1, "failed batch was resent");
    assert_eq!(stats.events_acked, events.len() as u64);
    assert!(server.stats().ingest_failures >= 1);

    engine.flush().expect("final flush");
    assert_eq!(engine.stats().events_applied, events.len() as u64);
    assert_eq!(engine.stats().events_rejected, 0);
    let control = engine::EngineBuilder::new().build_online();
    control.ingest_batch(&events).expect("control ingest");
    control.flush().expect("control flush");
    assert_eq!(engine.reports(), control.reports());
    server.shutdown();
}

/// A slow server bounds the producer's memory: in-flight events never
/// exceed the window, and the producer demonstrably *waits* for acks
/// (total wall time covers the per-batch delay serialized through the
/// window) instead of buffering ahead.
#[test]
fn slow_server_blocks_send_with_bounded_inflight() {
    let events = sim_events();
    let delay = Duration::from_millis(5);
    let server = EngineServer::bind(
        "127.0.0.1:0",
        Arc::new(SlowEngine::new(delay)),
        ServerConfig {
            // Window of one batch: at most 32 events may be un-acked.
            window: 32,
            flush_every_events: 0,
            ..ServerConfig::default()
        },
    )
    .expect("bind");

    let mut producer = TraceProducer::connect(
        server.local_addr().to_string(),
        ProducerConfig {
            producer_id: 1,
            batch_events: 32,
            ..ProducerConfig::default()
        },
    )
    .expect("connect");

    let batches = events.len().div_ceil(32);
    let start = Instant::now();
    let mut max_inflight = 0u64;
    for event in &events {
        producer.send(event).expect("send");
        max_inflight = max_inflight.max(producer.stats().events_inflight);
    }
    producer.flush().expect("flush");
    let elapsed = start.elapsed();

    // Bounded memory: never more than the one-batch window in flight
    // (the budget floor admits exactly one batch while acks are owed).
    assert!(
        max_inflight <= 32,
        "in-flight exceeded the window: {max_inflight}"
    );
    // Blocking, not buffering: with a window of one batch every batch's
    // server-side delay is on the producer's critical path.
    let floor = delay * (batches as u32);
    assert!(
        elapsed >= floor,
        "producer finished in {elapsed:?} — it must have buffered past the \
         window (serialized floor {floor:?} for {batches} batches)"
    );

    let stats = producer.close().expect("close");
    assert_eq!(stats.events_sent, events.len() as u64);
    assert_eq!(stats.events_acked, events.len() as u64);
    assert_eq!(stats.events_inflight, 0);
    assert_eq!(stats.batches_sent, batches as u64);
    assert_eq!(stats.acks_received, batches as u64);
    server.shutdown();
}

/// Counters across a reconnect: killing every live server socket
/// mid-stream forces the producer through reconnect-with-resume; acked,
/// resent and in-flight counts must still reconcile exactly — nothing
/// lost, nothing double-counted.
#[test]
fn stats_reconcile_across_reconnect() {
    let events = sim_events();
    let engine = Arc::new(engine::EngineBuilder::new().build().expect("engine"));
    let server = EngineServer::bind(
        "127.0.0.1:0",
        Arc::clone(&engine) as Arc<dyn AnalysisEngine>,
        ServerConfig::default(),
    )
    .expect("bind");

    let mut producer = TraceProducer::connect(
        server.local_addr().to_string(),
        ProducerConfig {
            producer_id: 1,
            batch_events: 16,
            ..ProducerConfig::default()
        },
    )
    .expect("connect");

    let cut = events.len() / 2;
    for event in &events[..cut] {
        producer.send(event).expect("send");
    }
    producer.flush().expect("flush");

    // Sever the producer's socket server-side: the next send hits a dead
    // connection and must reconnect (same server, same registry).
    assert_eq!(server.sever_connections(), 1);
    for event in &events[cut..] {
        producer.send(event).expect("send after reconnect");
    }
    let stats = producer.close().expect("close");

    assert_eq!(stats.reconnects, 1, "exactly one reconnect");
    assert_eq!(stats.events_offered, events.len() as u64);
    assert_eq!(stats.events_acked, events.len() as u64, "every event acked");
    assert_eq!(stats.events_inflight, 0);
    // Everything was flushed-and-acked before the cut, so the resend set
    // is empty or tiny (only what the severed socket swallowed).
    assert_eq!(stats.events_sent, events.len() as u64 + stats.events_resent);

    engine.flush().expect("final flush");
    assert_eq!(engine.stats().events_applied, events.len() as u64);
    assert_eq!(engine.stats().events_rejected, 0);

    let control = engine::EngineBuilder::new().build_online();
    control.ingest_batch(&events).expect("control ingest");
    control.flush().expect("control flush");
    assert_eq!(engine.reports(), control.reports());
    server.shutdown();
}
