//! Loopback protocol: a producer streaming events over TCP into an
//! [`EngineServer`] must leave the engine with the interpreter oracle's
//! reports through handshake refusals, a mid-stream producer kill,
//! concurrent producers and reconnect-with-resume. (A clean stream over
//! TCP is one of the shapes `tests/shapes.rs` holds to the oracle.)

use engine::{AnalysisEngine, EngineBuilder};
use net::{EngineServer, NetError, ProducerConfig, ServerConfig, TraceProducer};
use online::TraceEvent;
use std::sync::Arc;
use testkit::{oracle, Scenario, ScratchDir, Suite};

fn sim_events(seed: u64) -> Vec<TraceEvent> {
    Scenario {
        pes: vec![1, 4, 16],
        ..Scenario::new(seed)
    }
    .events()
}

fn sharded_server(window: u32) -> EngineServer {
    let engine = Arc::new(
        EngineBuilder::new()
            .shards(3)
            .build()
            .expect("sharded engine"),
    );
    EngineServer::bind(
        "127.0.0.1:0",
        engine,
        ServerConfig {
            window,
            flush_every_events: 512,
            ..ServerConfig::default()
        },
    )
    .expect("bind server")
}

/// The server advertises the hash of the suite its engine serves, with
/// nothing configured beside it: in front of a custom-suite engine a
/// default producer (standard suite) is refused and a producer built
/// against the custom suite is accepted.
#[test]
fn server_hashes_the_spec_its_engine_serves() {
    let spec = Suite::WithIoContention.spec();
    let engine = EngineBuilder::new().spec(spec.clone()).build();
    let server = EngineServer::bind(
        "127.0.0.1:0",
        Arc::new(engine.expect("engine")),
        ServerConfig::default(),
    )
    .expect("bind server");
    let addr = server.local_addr().to_string();
    match TraceProducer::connect(&addr, ProducerConfig::default()) {
        Err(NetError::SpecMismatch { client, server: s }) => {
            assert_eq!(client, net::standard_spec_hash());
            assert_eq!(s, net::spec_hash(&spec));
        }
        Err(other) => panic!("expected SpecMismatch, got {other:?}"),
        Ok(_) => panic!("expected SpecMismatch, got an accepted connection"),
    }
    let configured = ProducerConfig {
        spec_hash: net::spec_hash(&spec),
        ..ProducerConfig::default()
    };
    let producer = TraceProducer::connect(&addr, configured).expect("connect");
    producer.close().expect("close");
    assert_eq!(server.stats().handshakes_refused, 1);
    assert_eq!(server.stats().connections_accepted, 1);
    server.shutdown();
}

/// Mid-stream producer kill + restart: the restarted producer re-offers
/// the whole stream, resumes from the server's last-acked sequence
/// number, and the engine ends with no duplicate and no lost events.
#[test]
fn producer_kill_and_resume_loses_and_duplicates_nothing() {
    let events = sim_events(12);
    let server = sharded_server(4096);
    let addr = server.local_addr().to_string();
    let cut = events.len() / 2;

    // Phase 1: stream half with small batches, then die without goodbye
    // (drop without close) — in-flight batches may be unacked.
    let mut first = TraceProducer::connect(
        &addr,
        ProducerConfig {
            producer_id: 7,
            batch_events: 16,
            ..ProducerConfig::default()
        },
    )
    .expect("connect");
    for event in &events[..cut] {
        first.send(event).expect("send");
    }
    let acked_at_kill = first.stats().events_acked;
    drop(first); // the kill: no flush, no goodbye

    // Phase 2: a restarted producer re-offers the stream from the start.
    let mut second = TraceProducer::connect(
        &addr,
        ProducerConfig {
            producer_id: 7,
            batch_events: 16,
            ..ProducerConfig::default()
        },
    )
    .expect("reconnect");
    let resume = second.resume_from();
    assert!(
        resume >= acked_at_kill,
        "server remembered at least what the dead producer saw acked \
         ({resume} >= {acked_at_kill})"
    );
    assert!(
        resume <= cut as u64,
        "server never acked events that were not sent"
    );
    for event in &events {
        second.send(event).expect("resend");
    }
    let stats = second.close().expect("close");
    assert_eq!(stats.events_skipped_resume, resume);
    assert_eq!(stats.events_offered, events.len() as u64);

    server.engine().flush().expect("final flush");
    // No loss, no duplication: the engine applied the stream exactly once
    // (a duplicated RunStarted would be *rejected*, a duplicated timing
    // would silently skew events_applied).
    assert_eq!(server.engine().stats().events_applied, events.len() as u64);
    assert_eq!(server.engine().stats().events_rejected, 0);
    let spec = server.engine().spec();
    assert_eq!(server.engine().reports(), oracle(&spec, &events).reports);
    server.shutdown();
}

/// Several concurrent producers, distinct run sets, one server: the
/// merged reports match in-process ingestion of the union stream.
#[test]
fn concurrent_producers_fan_in() {
    let events = Scenario {
        versions: 2,
        pes: vec![1, 8],
        ..Scenario::new(5)
    }
    .events();
    // Partition by run so each producer owns complete runs.
    let mut parts: Vec<Vec<TraceEvent>> = vec![Vec::new(), Vec::new(), Vec::new()];
    for event in &events {
        parts[(event.run_key().0 % 3) as usize].push(event.clone());
    }

    let server = sharded_server(4096);
    let addr = server.local_addr().to_string();
    std::thread::scope(|scope| {
        for (i, part) in parts.iter().enumerate() {
            let addr = addr.clone();
            scope.spawn(move || {
                let mut producer = TraceProducer::connect(
                    &addr,
                    ProducerConfig {
                        producer_id: 100 + i as u64,
                        batch_events: 32,
                        ..ProducerConfig::default()
                    },
                )
                .expect("connect");
                for event in part {
                    producer.send(event).expect("send");
                }
                producer.close().expect("close");
            });
        }
    });
    server.engine().flush().expect("final flush");
    assert_eq!(server.engine().stats().events_applied, events.len() as u64);
    // Id-free: producer interleaving is nondeterministic.
    let spec = server.engine().spec();
    let union = oracle(&spec, &events).reports;
    testkit::assert_reports_agree("fan-in", false, &union, &server.engine().reports());
    assert_eq!(server.stats().connections_accepted, 3);
    server.shutdown();
}

/// A producer built against a different property suite is refused at
/// handshake with the typed mismatch — both hashes reported.
#[test]
fn spec_mismatch_is_refused_at_handshake() {
    let server = sharded_server(4096);
    let addr = server.local_addr().to_string();
    let result = TraceProducer::connect(
        &addr,
        ProducerConfig {
            producer_id: 9,
            spec_hash: 0x0bad_5bec,
            ..ProducerConfig::default()
        },
    );
    match result {
        Err(NetError::SpecMismatch { client, server: s }) => {
            assert_eq!(client, 0x0bad_5bec);
            assert_eq!(s, net::standard_spec_hash());
        }
        Err(other) => panic!("expected SpecMismatch, got {other:?}"),
        Ok(_) => panic!("expected SpecMismatch, got an accepted connection"),
    }
    assert_eq!(server.stats().handshakes_refused, 1);
    assert_eq!(server.stats().connections_accepted, 0);
    server.shutdown();
}

/// NaN / −0.0 / infinity payloads cross the socket bit-exactly: the
/// frame codec moves `f64`s as IEEE-754 bit patterns, never through
/// value semantics (where NaN != NaN and −0.0 == 0.0 would corrupt a
/// re-encoded checksum).
#[test]
fn nan_payloads_cross_the_socket_bit_exactly() {
    use engine::{EngineError, RecoverableState};
    use online::SessionStats;
    use std::sync::Mutex;

    /// Records every ingested event verbatim.
    struct CapturingEngine(Mutex<Vec<TraceEvent>>);

    impl AnalysisEngine for CapturingEngine {
        fn ingest_batch(&self, events: &[TraceEvent]) -> Result<usize, EngineError> {
            self.0.lock().unwrap().extend_from_slice(events);
            Ok(events.len())
        }
        fn flush(&self) -> Result<Vec<online::RunKey>, EngineError> {
            Ok(Vec::new())
        }
        fn report(&self, _run: online::RunKey) -> Option<cosy::AnalysisReport> {
            None
        }
        fn reports(&self) -> std::collections::HashMap<online::RunKey, cosy::AnalysisReport> {
            std::collections::HashMap::new()
        }
        fn stats(&self) -> SessionStats {
            SessionStats::default()
        }
        fn recoverable_state(&self) -> RecoverableState {
            RecoverableState::Ephemeral
        }
        fn checkpoint(&self) -> Result<(), EngineError> {
            Ok(())
        }
    }

    let specials = [
        f64::NAN.to_bits(),
        0x7ff0_0000_0000_2026u64, // NaN with payload bits
        (-0.0f64).to_bits(),
        f64::INFINITY.to_bits(),
        f64::NEG_INFINITY.to_bits(),
        0x0000_0000_0000_0001u64, // smallest subnormal
    ];
    let events: Vec<TraceEvent> = specials
        .iter()
        .enumerate()
        .map(|(i, &bits)| TraceEvent::RegionExited {
            run: online::RunKey(i as u64),
            function: "main".into(),
            region: online::RegionRef::new("main", 1),
            excl: f64::from_bits(bits),
            incl: f64::from_bits(bits ^ (1 << 63)),
            ovhd: 0.5,
        })
        .collect();

    let capture = Arc::new(CapturingEngine(Mutex::new(Vec::new())));
    let server = EngineServer::bind(
        "127.0.0.1:0",
        Arc::clone(&capture) as Arc<dyn AnalysisEngine>,
        ServerConfig::default(),
    )
    .expect("bind");
    let mut producer = TraceProducer::connect(
        server.local_addr().to_string(),
        ProducerConfig {
            producer_id: 5,
            batch_events: 2,
            ..ProducerConfig::default()
        },
    )
    .expect("connect");
    for event in &events {
        producer.send(event).expect("send");
    }
    producer.close().expect("close");

    let received = capture.0.lock().unwrap();
    assert_eq!(received.len(), events.len());
    for (got, sent) in received.iter().zip(&events) {
        let (
            TraceEvent::RegionExited {
                excl: a, incl: b, ..
            },
            TraceEvent::RegionExited {
                excl: x, incl: y, ..
            },
        ) = (got, sent)
        else {
            panic!("variant changed on the wire");
        };
        assert_eq!(a.to_bits(), x.to_bits(), "excl bit pattern preserved");
        assert_eq!(b.to_bits(), y.to_bits(), "incl bit pattern preserved");
    }
    drop(received);
    server.shutdown();
}

/// The server also fronts a *durable* engine: events streamed over TCP
/// survive a server-process kill via the engine's WAL.
#[test]
fn tcp_into_durable_engine_survives_engine_kill() {
    let events = sim_events(13);
    let dir = ScratchDir::new("net-durable");
    let cut = events.len() / 2;

    {
        let engine = Arc::new(
            EngineBuilder::new()
                .durable(dir.path())
                .build()
                .expect("durable engine"),
        );
        let server =
            EngineServer::bind("127.0.0.1:0", engine, ServerConfig::default()).expect("bind");
        let mut producer = TraceProducer::connect(
            server.local_addr().to_string(),
            ProducerConfig {
                producer_id: 3,
                batch_events: 32,
                ..ProducerConfig::default()
            },
        )
        .expect("connect");
        for event in &events[..cut] {
            producer.send(event).expect("send");
        }
        producer.flush().expect("flush");
        drop(producer);
        server.shutdown();
        // Engine dropped without checkpoint: the WAL is the survivor.
    }

    let engine = Arc::new(
        EngineBuilder::new()
            .durable(dir.path())
            .build()
            .expect("recovered engine"),
    );
    let server = EngineServer::bind("127.0.0.1:0", engine, ServerConfig::default()).expect("bind");
    let mut producer = TraceProducer::connect(
        server.local_addr().to_string(),
        ProducerConfig {
            producer_id: 3,
            batch_events: 32,
            ..ProducerConfig::default()
        },
    )
    .expect("connect");
    // The *server* restarted, so its ack registry is fresh — but the
    // recovered engine holds the applied prefix. Resending it is safe:
    // WAL-recovered state plus idempotent refinements converge, and
    // RunStarted duplicates are rejected-and-counted, not applied twice.
    // The clean path for a producer is to resume from its own position;
    // here we deliberately resend only the un-applied tail.
    for event in &events[cut..] {
        producer.send(event).expect("send");
    }
    producer.close().expect("close");
    server.engine().flush().expect("final flush");

    let spec = server.engine().spec();
    assert_eq!(server.engine().reports(), oracle(&spec, &events).reports);
    server.shutdown();
}

/// Feature negotiation pins (PR 6): unknown feature bits in the hello
/// are masked down to what the server supports — never a hard refusal —
/// so a newer producer degrades gracefully.
#[test]
fn unknown_feature_bits_are_masked_not_refused() {
    let server = sharded_server(4096);
    let mut producer = TraceProducer::connect(
        server.local_addr().to_string(),
        ProducerConfig {
            producer_id: 31,
            features: 0xff, // every bit, known and unknown
            ..ProducerConfig::default()
        },
    )
    .expect("a hello full of unknown feature bits still connects");
    assert_eq!(
        producer.features(),
        net::FEATURES_SUPPORTED,
        "negotiated set is the intersection, unknown bits masked off"
    );
    // The negotiated features actually work.
    producer.send(&sim_events(15)[0]).expect("send");
    producer.flush().expect("flush");
    let snapshot = producer.introspect().expect("introspect");
    assert!(!snapshot.is_empty());
    producer.close().expect("close");
    server.shutdown();
}

/// A v1 producer — 21 hello bytes, no feature byte — must get a prompt
/// `UNSUPPORTED_PROTOCOL` reply. The server reads only the version-
/// bearing prefix before deciding, so it cannot stall waiting for a
/// feature byte a v1 peer never sends.
#[test]
fn v1_hello_is_refused_promptly_not_deadlocked() {
    use std::io::{Read, Write};
    let server = sharded_server(4096);
    let mut raw = std::net::TcpStream::connect(server.local_addr()).expect("raw connect");
    raw.set_read_timeout(Some(std::time::Duration::from_secs(10)))
        .unwrap();

    // Hand-crafted v1 hello: magic | version=1 | producer id | spec hash.
    let mut hello = Vec::new();
    hello.extend_from_slice(b"KJNP");
    hello.push(1);
    hello.extend_from_slice(&7u64.to_le_bytes());
    hello.extend_from_slice(&net::standard_spec_hash().to_le_bytes());
    assert_eq!(hello.len(), net::proto::HELLO_PREFIX_LEN);
    raw.write_all(&hello).expect("write v1 hello");

    // The refusal arrives without the test writing another byte. (A real
    // v1 client would read its 26-byte ack, see version 2 at byte 4, and
    // refuse client-side with a typed UnsupportedProtocol.)
    let mut reply = [0u8; net::proto::HELLO_ACK_LEN];
    raw.read_exact(&mut reply).expect("prompt refusal reply");
    assert_eq!(&reply[..4], b"KJNP");
    assert_eq!(reply[4], net::PROTO_VERSION);
    assert_eq!(reply[5], net::proto::status::UNSUPPORTED_PROTOCOL);
    assert_eq!(server.stats().handshakes_refused, 1);
    assert_eq!(server.stats().connections_accepted, 0);
    server.shutdown();
}

/// A producer that offered no features gets the poll refused client-side
/// with the typed error — nothing touches the wire.
#[test]
fn introspect_without_negotiation_is_a_typed_refusal() {
    let server = sharded_server(4096);
    let mut producer = TraceProducer::connect(
        server.local_addr().to_string(),
        ProducerConfig {
            producer_id: 33,
            features: 0,
            ..ProducerConfig::default()
        },
    )
    .expect("connect");
    assert_eq!(producer.features(), 0);
    assert!(matches!(
        producer.introspect(),
        Err(NetError::FeatureUnavailable("introspect"))
    ));
    producer.close().expect("close");
    server.shutdown();
}

/// The acceptance-criteria test for the Introspect RPC: the snapshot
/// polled over loopback TCP reconciles **exactly** with
/// [`AnalysisEngine::stats`] for the same run — mid-stream, and again
/// after a forced server-side disconnect and reconnect-with-resume.
#[test]
fn introspect_reconciles_with_engine_stats_across_reconnect() {
    let events = sim_events(14);
    let server = sharded_server(4096);
    let mut producer = TraceProducer::connect(
        server.local_addr().to_string(),
        ProducerConfig {
            producer_id: 21,
            batch_events: 32,
            ..ProducerConfig::default()
        },
    )
    .expect("connect");
    assert_eq!(
        producer.features() & net::feature::INTROSPECT,
        net::feature::INTROSPECT
    );

    let cut = events.len() / 2;
    for event in &events[..cut] {
        producer.send(event).expect("send");
    }
    producer.flush().expect("flush");

    // Mid-stream poll: every counter equals the engine's own view (the
    // flush() barrier guarantees everything offered has been applied).
    let snapshot = producer.introspect().expect("introspect");
    let stats = server.engine().stats();
    assert_eq!(
        snapshot.counter("kojak_online_events_applied_total"),
        stats.events_applied
    );
    assert_eq!(
        snapshot.counter("kojak_net_events_received_total"),
        server.stats().events_received
    );
    assert_eq!(snapshot.gauge("kojak_engine_shards"), Some(3));

    // Fault lever: kill the connection server-side. The producer's next
    // traffic goes through reconnect-with-resume.
    assert_eq!(server.sever_connections(), 1);
    for event in &events[cut..] {
        producer.send(event).expect("send after sever");
    }
    producer.flush().expect("flush after sever");
    server.engine().flush().expect("engine flush");

    let snapshot = producer.introspect().expect("introspect after reconnect");
    let stats = server.engine().stats();
    assert_eq!(stats.events_applied, events.len() as u64, "no loss");
    assert_eq!(stats.events_rejected, 0, "no duplication");
    assert_eq!(
        snapshot.counter("kojak_online_events_applied_total"),
        stats.events_applied
    );
    assert_eq!(
        snapshot.counter("kojak_online_events_rejected_total"),
        stats.events_rejected
    );
    assert_eq!(
        snapshot.counter("kojak_online_flushes_total"),
        stats.flushes
    );
    assert_eq!(
        snapshot.counter("kojak_online_runs_finished_total"),
        stats.runs_finished
    );
    // The producer's ack ledger closes against the server's applied
    // count: everything acked was applied, nothing applied went unacked.
    assert_eq!(producer.stats().events_acked, stats.events_applied);
    assert!(
        producer.stats().reconnects >= 1,
        "the sever forced a reconnect"
    );

    // The wire-polled snapshot is the same assembly the server offers
    // locally (modulo counters still moving: quiesced here).
    let local = server.metrics();
    assert_eq!(
        snapshot.counter("kojak_online_events_applied_total"),
        local.counter("kojak_online_events_applied_total")
    );

    // Stage histograms are live and render as Prometheus-style text.
    let apply = snapshot
        .histogram("kojak_online_apply_ns")
        .expect("apply-stage histogram present");
    assert!(apply.count > 0, "the apply stage timed every batch");
    assert!(snapshot
        .render_text()
        .contains("kojak_net_events_received_total"));

    producer.close().expect("close");
    server.shutdown();
}
