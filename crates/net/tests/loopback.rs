//! Loopback equivalence: a producer process streaming events over TCP
//! into an [`EngineServer`] must leave the engine with reports
//! **bit-identical** to in-process ingestion of the same stream — through
//! handshake refusals, a mid-stream producer kill, and
//! reconnect-with-resume.

use apprentice_sim::{archetypes, simulate_program, MachineModel, ProgramGenerator};
use engine::{AnalysisEngine, EngineBuilder};
use net::{EngineServer, NetError, ProducerConfig, ServerConfig, TraceProducer};
use online::replay::replay_store;
use online::TraceEvent;
use perfdata::Store;
use std::sync::Arc;

fn sim_events(seed: u64) -> Vec<TraceEvent> {
    let gen = ProgramGenerator {
        seed,
        functions: 2,
        max_depth: 3,
        max_fanout: 3,
        base_work: 0.01,
        comm_probability: 0.6,
    };
    let mut store = Store::new();
    simulate_program(
        &mut store,
        &gen.generate(),
        &MachineModel::t3e_900(),
        &[1, 4, 16],
    );
    replay_store(&store)
}

/// In-process control: the same engine shape fed directly.
fn control_reports(
    events: &[TraceEvent],
) -> std::collections::HashMap<online::RunKey, cosy::AnalysisReport> {
    let control = EngineBuilder::new()
        .shards(3)
        .build()
        .expect("control engine");
    control.ingest_batch(events).expect("control ingest");
    control.flush().expect("control flush");
    control.reports()
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

/// The acceptance-criteria test: stream over TCP into a `ShardedSession`
/// server; the resulting reports are bit-identical to in-process
/// ingestion of the same stream.
#[test]
fn tcp_stream_into_sharded_server_matches_in_process() {
    let events = sim_events(11);
    let server = sharded_server(4096);
    let addr = server.local_addr().to_string();

    let mut producer = TraceProducer::connect(
        &addr,
        ProducerConfig {
            producer_id: 1,
            batch_events: 64,
            ..ProducerConfig::default()
        },
    )
    .expect("connect");
    for event in &events {
        producer.send(event).expect("send");
    }
    let stats = producer.close().expect("close");
    assert_eq!(stats.events_sent, events.len() as u64);
    assert_eq!(stats.events_acked, events.len() as u64);
    assert_eq!(stats.events_inflight, 0);

    server.engine().flush().expect("final flush");
    assert_eq!(
        server.engine().stats().events_applied,
        events.len() as u64,
        "every event applied exactly once"
    );
    assert_eq!(server.engine().reports(), control_reports(&events));

    let server_stats = server.stats();
    assert_eq!(server_stats.connections_accepted, 1);
    assert_eq!(server_stats.events_received, events.len() as u64);
    assert_eq!(server_stats.events_deduplicated, 0);
    assert_eq!(server_stats.goodbyes, 1);
    server.shutdown();
}

/// The standard suite plus `examples/specs/io_contention.asl`.
fn custom_suite() -> Arc<asl_core::check::CheckedSpec> {
    let src = format!(
        "{}\n{}",
        cosy::standard_suite_source(),
        include_str!("../../../examples/specs/io_contention.asl")
    );
    Arc::new(asl_core::parse_and_check(&src).expect("custom suite"))
}

/// The server advertises the hash of the suite its engine serves, with
/// nothing configured beside it: in front of a custom-suite engine a
/// default producer (standard suite) is refused and a producer built
/// against the custom suite is accepted.
#[test]
fn server_hashes_the_spec_its_engine_serves() {
    let spec = custom_suite();
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

/// A suite with a user property crosses the wire like the standard one:
/// the producer hashes the custom suite, the sharded server evaluates
/// `IoContention` (whose reads the standard suite's dirtiness rules do not
/// cover), and after a late correction of the reference run's I/O time —
/// sent once every run was reported — its reports are bit-identical to a
/// batch engine fed in process.
#[test]
fn custom_property_over_tcp_matches_batch() {
    use perfdata::TimingType::{IoRead, IoWrite};
    let spec = custom_suite();
    let spec_hash = net::spec_hash(&spec);
    assert_ne!(spec_hash, net::standard_spec_hash());

    let mut store = Store::new();
    simulate_program(
        &mut store,
        &archetypes::spectral_io(11),
        &MachineModel::t3e_900(),
        &[2, 16, 64],
    );
    let events = replay_store(&store);
    let reference_io = |e: &&TraceEvent| {
        matches!(
            e,
            TraceEvent::TypedSample {
                run: online::RunKey(0),
                ty: IoRead | IoWrite,
                ..
            }
        )
    };
    let mut correction = events.iter().rfind(reference_io).unwrap().clone();
    if let TraceEvent::TypedSample { time, .. } = &mut correction {
        *time *= 0.5;
    }

    let engine = EngineBuilder::new().spec(spec.clone()).shards(3).build();
    let server = EngineServer::bind(
        "127.0.0.1:0",
        Arc::new(engine.expect("sharded engine")),
        ServerConfig {
            flush_every_events: 512,
            ..ServerConfig::default()
        },
    )
    .expect("bind server");
    let mut producer = TraceProducer::connect(
        server.local_addr().to_string(),
        ProducerConfig {
            producer_id: 21,
            spec_hash,
            batch_events: 64,
            ..ProducerConfig::default()
        },
    )
    .expect("connect");
    for event in &events {
        producer.send(event).expect("send");
    }
    producer.flush().expect("producer flush");
    server.engine().flush().expect("every run reported");
    let before = server.engine().reports();
    producer.send(&correction).expect("send correction");
    producer.close().expect("close");
    server.engine().flush().expect("final flush");

    let batch = EngineBuilder::new().spec(spec).batch().build().unwrap();
    batch.ingest_batch(&events).expect("batch ingest");
    batch.ingest(&correction).expect("batch correction");
    batch.flush().expect("batch flush");
    assert_eq!(server.engine().reports(), batch.reports());
    // Addressed to run 0, the correction moved run 2's report too.
    let run2 = online::RunKey(2);
    assert_ne!(before[&run2], batch.reports()[&run2]);
    let held = |e: &cosy::RankedEntry| e.property == "IoContention";
    assert!(batch.reports()[&run2].entries.iter().any(held));
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
    assert_eq!(server.engine().reports(), control_reports(&events));
    server.shutdown();
}

/// Id-free projection of a report map: producer keys, labels, ranks and
/// severity bit patterns — everything except the arena ids, which depend
/// on the order runs reached a shard's store. Used where producers race
/// (their interleaving is nondeterministic); the single-producer tests
/// above compare full reports bit-for-bit.
fn canonical(
    reports: &std::collections::HashMap<online::RunKey, cosy::AnalysisReport>,
) -> Vec<String> {
    let mut out: Vec<String> = reports
        .iter()
        .map(|(key, r)| {
            let entries: Vec<String> = r
                .entries
                .iter()
                .map(|e| {
                    format!(
                        "{}:{}@{}={:x}",
                        e.rank,
                        e.property,
                        e.context.label,
                        e.severity.to_bits()
                    )
                })
                .collect();
            format!(
                "{key} {} pe{} cost{:x} [{}]",
                r.program,
                r.no_pe,
                r.total_cost.to_bits(),
                entries.join(";")
            )
        })
        .collect();
    out.sort();
    out
}

/// Several concurrent producers, distinct run sets, one server: the
/// merged reports match in-process ingestion of the union stream.
#[test]
fn concurrent_producers_fan_in() {
    let mut store = Store::new();
    let machine = MachineModel::t3e_900();
    simulate_program(&mut store, &archetypes::particle_mc(5), &machine, &[1, 8]);
    simulate_program(&mut store, &archetypes::stencil3d(6), &machine, &[1, 8]);
    let events = replay_store(&store);
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
    assert_eq!(
        canonical(&server.engine().reports()),
        canonical(&control_reports(&events)),
        "fan-in reports equal the union stream's (id-free: producer \
         interleaving is nondeterministic)"
    );
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
    let dir = std::env::temp_dir().join(format!("kojak-net-durable-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let cut = events.len() / 2;

    {
        let engine = Arc::new(
            EngineBuilder::new()
                .durable(&dir)
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
            .durable(&dir)
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

    let control = EngineBuilder::new().build_online();
    control.ingest_batch(&events).expect("control ingest");
    control.flush().expect("control flush");
    assert_eq!(server.engine().reports(), control.reports());
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
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
