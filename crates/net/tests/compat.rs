//! Versions and bytes on the wire: a version-2 producer is still served,
//! a producer meeting a server without batch frames stops typed, and the
//! bytes a producer writes are the bytes the server reads and the bytes a
//! durable engine logs, to the byte.

use engine::{AnalysisEngine, EngineBuilder};
use net::proto::{self, Hello, HelloAck};
use net::{EngineServer, NetError, ProducerConfig, ServerConfig, TraceProducer};
use online::wire::{self, FRAME_HEADER_LEN};
use online::{BatchEncoder, TraceEvent};
use std::io::{Read, Write};
use std::sync::Arc;
use std::time::Duration;
use testkit::{uninterrupted, Scenario, ScratchDir};

fn sim_events(seed: u64) -> Vec<TraceEvent> {
    Scenario {
        pes: vec![1, 4],
        ..Scenario::new(seed)
    }
    .events()
}

fn server(engine: Arc<dyn AnalysisEngine>) -> EngineServer {
    EngineServer::bind(
        "127.0.0.1:0",
        engine,
        ServerConfig {
            flush_every_events: 0,
            ..ServerConfig::default()
        },
    )
    .expect("bind server")
}

/// Read one frame off `stream` and decode it.
fn read_message(stream: &mut std::net::TcpStream) -> proto::Message {
    proto::read_message(stream, proto::DEFAULT_MAX_FRAME_LEN).expect("a frame")
}

#[test]
fn a_version_2_producer_is_answered_as_one_and_its_entry_batches_apply() {
    let events = sim_events(7);
    let engine = Arc::new(EngineBuilder::new().build().expect("engine"));
    let server = server(Arc::clone(&engine) as Arc<dyn AnalysisEngine>);
    let mut peer = std::net::TcpStream::connect(server.local_addr()).expect("connect");
    peer.set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();

    let mut hello = proto::encode_hello(&Hello {
        producer_id: 2,
        spec_hash: net::standard_spec_hash(),
        features: 0,
    });
    hello[4] = 2; // a version-2 producer
    peer.write_all(&hello).expect("hello");
    let mut reply = [0u8; proto::HELLO_ACK_LEN];
    peer.read_exact(&mut reply).expect("hello ack");
    assert_eq!(reply[4], 2, "answered in its own version");
    assert_eq!(reply[5], proto::status::ACCEPTED);

    let mut first_seq = 1;
    for batch in events.chunks(50) {
        peer.write_all(&testkit::entry_batch_frame(first_seq, batch))
            .expect("entry batch");
        first_seq += batch.len() as u64;
        match read_message(&mut peer) {
            proto::Message::Ack(ack) => assert_eq!(ack.high_water, first_seq - 1),
            other => panic!("expected an ack, got {}", other.kind()),
        }
    }
    let mut goodbye = Vec::new();
    wire::put_frame(&mut goodbye, |buf| {
        proto::encode_message(buf, &proto::Message::Goodbye)
    });
    peer.write_all(&goodbye).expect("goodbye");
    let mut rest = Vec::new();
    let _ = peer.read_to_end(&mut rest); // the server closes after the goodbye's flush

    assert_eq!(engine.stats().events_applied, events.len() as u64);
    assert_eq!(engine.reports(), uninterrupted(&events).reports());
    server.shutdown();
}

#[test]
fn a_server_without_batch_frames_is_refused_before_a_batch_is_sent() {
    let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().unwrap();
    // A version-2 server accepting whatever it is offered.
    let old_server = std::thread::spawn(move || {
        let (mut conn, _) = listener.accept().expect("accept");
        conn.set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        let mut hello = [0u8; proto::HELLO_LEN];
        conn.read_exact(&mut hello).expect("hello");
        let reply = proto::encode_hello_ack(&HelloAck {
            version: 2,
            status: proto::status::ACCEPTED,
            spec_hash: net::standard_spec_hash(),
            last_acked: 0,
            window: 4096,
            features: 0,
        });
        conn.write_all(&reply).expect("reply");
        let mut after = Vec::new();
        conn.read_to_end(&mut after).expect("the producer hangs up");
        after
    });
    match TraceProducer::connect(addr.to_string(), ProducerConfig::default()) {
        Err(NetError::UnsupportedProtocol(2)) => {}
        Err(other) => panic!("expected UnsupportedProtocol(2), got {other:?}"),
        Ok(_) => panic!("a producer was accepted by a server that cannot read its batches"),
    }
    let after = old_server.join().expect("the old server ran");
    assert!(after.is_empty(), "the producer sent {} bytes", after.len());
}

/// Producer, server and log count the same bytes: each batch frame is
/// written once by the producer, read once by the server and appended as
/// it is by the durable engine — and the counters close against frame
/// lengths computed here, independently.
#[test]
fn frame_bytes_close_from_producer_through_server_to_the_log() {
    let events = sim_events(9);
    const BATCH: usize = 64;
    let dir = ScratchDir::new("net-bytes");
    let engine = Arc::new(
        EngineBuilder::new()
            .durable(dir.path())
            .snapshot_every_flushes(0)
            .build()
            .expect("durable engine"),
    );
    let server = server(Arc::clone(&engine) as Arc<dyn AnalysisEngine>);
    let mut producer = TraceProducer::connect(
        server.local_addr().to_string(),
        ProducerConfig {
            producer_id: 3,
            batch_events: BATCH,
            ..ProducerConfig::default()
        },
    )
    .expect("connect");
    for event in &events {
        producer.send(event).expect("send");
    }
    let sent = producer.close().expect("close");

    let mut frames = Vec::new();
    let mut encoder = BatchEncoder::new();
    for (i, batch) in events.chunks(BATCH).enumerate() {
        encoder.encode(&mut frames, (i * BATCH) as u64 + 1, batch);
    }
    let goodbye = FRAME_HEADER_LEN as u64 + 1;
    assert_eq!(sent.frame_bytes_sent, frames.len() as u64 + goodbye);
    assert_eq!(server.stats().frame_bytes_received, sent.frame_bytes_sent);
    assert_eq!(
        server
            .metrics()
            .counter("kojak_net_frame_bytes_received_total"),
        sent.frame_bytes_sent
    );
    assert_eq!(
        engine.metrics().counter("kojak_wal_appended_bytes_total"),
        frames.len() as u64
    );
    // The log is the producer's frames, byte for byte.
    let log = std::fs::read(dir.path().join(online::durable::WAL_FILE)).expect("log");
    assert_eq!(&log[online::wal::WAL_HEADER_LEN as usize..], &frames[..]);
    server.shutdown();
}

/// A durable sharded engine fed over TCP logs a batch that lands on one
/// shard as its frame and splits one that spans shards; after a kill,
/// every shard recovers to the reports of uninterrupted shards.
#[test]
fn a_sharded_durable_engine_recovers_what_it_logged_from_frames() {
    let events = Scenario {
        versions: 3,
        pes: vec![1, 4],
        ..Scenario::new(17)
    }
    .events();
    let dir = ScratchDir::new("net-sharded-frames");
    let open = || {
        EngineBuilder::new()
            .durable(dir.path())
            .shards(2)
            .snapshot_every_flushes(0)
            .build()
            .expect("sharded durable engine")
    };
    let engine = Arc::new(open());
    let server = server(Arc::clone(&engine) as Arc<dyn AnalysisEngine>);
    let mut producer = TraceProducer::connect(
        server.local_addr().to_string(),
        ProducerConfig {
            producer_id: 4,
            batch_events: 48,
            ..ProducerConfig::default()
        },
    )
    .expect("connect");
    for event in &events {
        producer.send(event).expect("send");
    }
    let sent = producer.close().expect("close");
    server.shutdown();
    let logged = engine.metrics().counter("kojak_wal_appended_bytes_total");
    // Some batches span the shards and are encoded again per shard (each
    // part with its own tables), so the logs differ from the wire, but
    // not by much.
    let batches = sent.frame_bytes_sent - (FRAME_HEADER_LEN as u64 + 1);
    assert_ne!(logged, batches, "no batch spanned the shards");
    assert!(logged < 2 * batches, "{logged} vs {batches}");
    drop(
        Arc::try_unwrap(engine)
            .ok()
            .expect("the server let go of the engine"),
    );

    // The same shards in memory, fed the stream in one batch: shard-local
    // ids match, so the reports compare whole.
    let control = EngineBuilder::new().shards(2).build().expect("control");
    control.ingest_batch(&events).expect("control ingest");
    control.flush().expect("control flush");
    let recovered = open();
    assert_eq!(recovered.reports(), control.reports());
    assert_eq!(recovered.stats().events_applied, events.len() as u64);
}
