//! Network-layer robustness: slow-client reaping, producer quarantine,
//! deterministic reconnect jitter, and bounded retry budgets. Every
//! defense must fail *typed* and keep the exactly-once ingest contract
//! — a reaped or reconnected producer loses and duplicates nothing.

use engine::EngineBuilder;
use net::{EngineServer, NetError, ProducerConfig, ServerConfig, TraceProducer};
use online::TraceEvent;
use std::sync::Arc;
use std::time::{Duration, Instant};

fn sim_events(seed: u64) -> Vec<TraceEvent> {
    testkit::Scenario::new(seed).events()
}

fn server_with(config: ServerConfig) -> EngineServer {
    let engine = Arc::new(EngineBuilder::new().shards(2).build().expect("engine"));
    EngineServer::bind("127.0.0.1:0", engine, config).expect("bind")
}

/// Poll until `probe` returns true or the deadline passes.
fn wait_for(what: &str, probe: impl Fn() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(5);
    while !probe() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(10));
    }
}

/// The reconnect backoff is decorrelated jitter: deterministic per
/// producer (failure schedules reproduce from the id alone), divergent
/// across producers (no thundering herd), and always within
/// `[base, cap]`.
#[test]
fn reconnect_backoff_is_deterministic_and_bounded() {
    let base = Duration::from_millis(10);
    let cap = Duration::from_millis(400);

    let schedule = |producer_id: u64| -> Vec<Duration> {
        let mut waits = Vec::new();
        let mut previous = base;
        for draw in 1..=12u64 {
            previous = net::decorrelated_backoff(producer_id, draw, previous, base, cap);
            waits.push(previous);
        }
        waits
    };

    // Deterministic: the schedule is a pure function of the identity.
    assert_eq!(schedule(1), schedule(1));
    // Decorrelated: two producers hitting the same dead server do not
    // sleep in lockstep.
    assert_ne!(schedule(1), schedule(2));
    // Bounded: every wait respects the floor and the configured cap.
    for wait in schedule(1).iter().chain(schedule(2).iter()) {
        assert!(*wait >= base, "never below the base: {wait:?}");
        assert!(*wait <= cap, "never above the cap: {wait:?}");
    }
    // A zero cap means the documented 1 s default, not an infinite wait.
    let uncapped = net::decorrelated_backoff(3, 1, Duration::from_secs(30), base, Duration::ZERO);
    assert!(uncapped <= Duration::from_secs(1));
}

/// A connection that never completes its handshake is reaped after the
/// deadline — one silent peer cannot pin a handler thread forever
/// (slowloris guard).
#[test]
fn silent_handshake_is_reaped_after_the_deadline() {
    let server = server_with(ServerConfig {
        handshake_timeout: Duration::from_millis(80),
        ..ServerConfig::default()
    });
    // Connect and say nothing.
    let silent = std::net::TcpStream::connect(server.local_addr()).expect("connect");
    wait_for("handshake reap", || {
        server.stats().connections_reaped_idle >= 1
    });
    drop(silent);

    // The deadline punishes only silence: a prompt handshake still works.
    let mut producer = TraceProducer::connect(
        server.local_addr().to_string(),
        ProducerConfig {
            producer_id: 1,
            ..ProducerConfig::default()
        },
    )
    .expect("prompt handshake connects");
    producer.send(&sim_events(21)[0]).expect("send");
    producer.close().expect("close");
    server.shutdown();
}

/// An idle post-handshake connection is reaped; the producer's next
/// traffic reconnects-with-resume and the stream still lands exactly
/// once.
#[test]
fn idle_connection_reap_keeps_exactly_once_ingest() {
    let events = sim_events(22);
    let server = server_with(ServerConfig {
        idle_timeout: Duration::from_millis(80),
        ..ServerConfig::default()
    });
    let mut producer = TraceProducer::connect(
        server.local_addr().to_string(),
        ProducerConfig {
            producer_id: 4,
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

    // Go quiet past the idle deadline: the server reaps the connection
    // (frames already received were flushed to the engine first).
    wait_for("idle reap", || server.stats().connections_reaped_idle >= 1);

    // The producer notices only on its next traffic, reconnects, and
    // resumes from the server's ack watermark.
    for event in &events[cut..] {
        producer.send(event).expect("send after reap");
    }
    let stats = producer.close().expect("close");
    assert!(stats.reconnects >= 1, "the reap forced a reconnect");

    server.engine().flush().expect("final flush");
    assert_eq!(
        server.engine().stats().events_applied,
        events.len() as u64,
        "no loss across the reap"
    );
    assert_eq!(server.engine().stats().events_rejected, 0, "no duplication");
    server.shutdown();
}

/// A producer that keeps sending undecodable frames is quarantined: its
/// handshakes are refused with the typed status until the operator
/// clears it. Other producers are untouched.
#[test]
fn repeated_protocol_errors_quarantine_the_producer() {
    use std::io::{Read, Write};
    let server = server_with(ServerConfig {
        max_producer_protocol_errors: 2,
        ..ServerConfig::default()
    });
    let addr = server.local_addr();

    let garbage_round = |expected_errors: u64| {
        let mut raw = std::net::TcpStream::connect(addr).expect("connect");
        raw.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        raw.write_all(&net::proto::encode_hello(&net::proto::Hello {
            producer_id: 66,
            spec_hash: net::standard_spec_hash(),
            features: 0,
        }))
        .expect("hello");
        let mut ack = [0u8; net::proto::HELLO_ACK_LEN];
        raw.read_exact(&mut ack).expect("hello ack");
        assert_eq!(ack[5], net::proto::status::ACCEPTED);
        // One frame with a corrupt checksum: a typed protocol error,
        // counted against this producer, and the connection is dropped.
        raw.write_all(&[4, 0, 0, 0, 0xEF, 0xBE, 0xAD, 0xDE, 1, 2, 3, 4])
            .expect("garbage frame");
        wait_for("protocol error count", || {
            server.stats().protocol_errors >= expected_errors
        });
    };
    garbage_round(1);
    assert!(
        server.quarantined_producers().is_empty(),
        "one strike is not enough"
    );
    garbage_round(2);
    wait_for("quarantine", || server.stats().producers_quarantined >= 1);
    assert_eq!(server.quarantined_producers(), vec![66]);

    // The quarantined identity is refused at handshake, typed.
    match TraceProducer::connect(
        addr.to_string(),
        ProducerConfig {
            producer_id: 66,
            ..ProducerConfig::default()
        },
    ) {
        Err(NetError::Quarantined) => {}
        other => panic!("expected Quarantined, got {:?}", other.map(|_| ()).err()),
    }

    // An innocent producer on the same server is unaffected.
    let mut innocent = TraceProducer::connect(
        addr.to_string(),
        ProducerConfig {
            producer_id: 67,
            ..ProducerConfig::default()
        },
    )
    .expect("innocent producer connects");
    innocent.send(&sim_events(23)[0]).expect("send");
    innocent.close().expect("close");

    // The operator clears the quarantine; the identity works again.
    assert!(server.clear_quarantine(66));
    assert!(!server.clear_quarantine(66), "second clear is a no-op");
    assert!(server.quarantined_producers().is_empty());
    let mut cleared = TraceProducer::connect(
        addr.to_string(),
        ProducerConfig {
            producer_id: 66,
            ..ProducerConfig::default()
        },
    )
    .expect("cleared producer connects");
    cleared.send(&sim_events(23)[1]).expect("send");
    cleared.close().expect("close");
    server.shutdown();
}

/// When the server is gone for good, the reconnect loop fails *typed*
/// after its attempt budget — carrying the attempt count, the elapsed
/// wall clock, and the final underlying failure.
#[test]
fn reconnect_attempt_budget_fails_typed() {
    let server = server_with(ServerConfig::default());
    let addr = server.local_addr().to_string();
    let mut producer = TraceProducer::connect(
        &addr,
        ProducerConfig {
            producer_id: 8,
            batch_events: 1,
            reconnect_attempts: 3,
            reconnect_backoff: Duration::from_millis(1),
            reconnect_backoff_cap: Duration::from_millis(4),
            ..ProducerConfig::default()
        },
    )
    .expect("connect");
    let events = sim_events(24);
    producer.send(&events[0]).expect("send");
    server.shutdown();

    // Pump sends until the dead socket surfaces: the reconnect loop must
    // exhaust exactly its budget and report what it spent.
    let mut result = Ok(());
    for event in &events[1..] {
        result = producer.send(event).and_then(|()| producer.flush());
        if result.is_err() {
            break;
        }
    }
    match result {
        Err(NetError::ReconnectFailed {
            attempts,
            elapsed,
            last,
        }) => {
            assert_eq!(attempts, 3, "the whole budget was spent");
            assert!(elapsed >= Duration::from_millis(3), "three backoff sleeps");
            assert!(
                matches!(*last, NetError::Io(_)),
                "the final failure is carried: {last}"
            );
        }
        other => panic!("expected ReconnectFailed, got {:?}", other.err()),
    }
}

/// The elapsed-time budget cuts reconnecting short even when plenty of
/// attempts remain — a producer configured to give up in milliseconds
/// cannot be stuck sleeping for minutes.
#[test]
fn reconnect_elapsed_budget_cuts_the_attempt_budget_short() {
    let server = server_with(ServerConfig::default());
    let addr = server.local_addr().to_string();
    let mut producer = TraceProducer::connect(
        &addr,
        ProducerConfig {
            producer_id: 9,
            batch_events: 1,
            reconnect_attempts: 10_000,
            reconnect_backoff: Duration::from_millis(20),
            reconnect_backoff_cap: Duration::from_millis(40),
            reconnect_max_elapsed: Duration::from_millis(50),
            ..ProducerConfig::default()
        },
    )
    .expect("connect");
    let events = sim_events(25);
    producer.send(&events[0]).expect("send");
    server.shutdown();

    let start = Instant::now();
    let mut result = Ok(());
    for event in &events[1..] {
        result = producer.send(event).and_then(|()| producer.flush());
        if result.is_err() {
            break;
        }
    }
    match result {
        Err(NetError::ReconnectFailed { attempts, .. }) => {
            assert!(attempts < 10_000, "the time budget cut the loop short");
        }
        other => panic!("expected ReconnectFailed, got {:?}", other.err()),
    }
    assert!(
        start.elapsed() < Duration::from_secs(5),
        "gave up promptly: {:?}",
        start.elapsed()
    );
}
