//! Bytes per event, pinned exactly: what a fixed scenario costs on the
//! wire and in the write-ahead log, an exact count a noisy host can
//! check where a stopwatch cannot.
//!
//! A producer streams the scenario in batches of 256 into a server in
//! front of a durable session; the wire is every frame it wrote, the log
//! every byte the session appended. Both must stay at or under 40 bytes
//! per event. A change that moves either count restates it here, on
//! purpose.

use engine::{AnalysisEngine, EngineBuilder};
use net::{EngineServer, ProducerConfig, ServerConfig, TraceProducer};
use online::wal::WAL_HEADER_LEN;
use online::TraceEvent;
use std::sync::Arc;
use testkit::{Scenario, ScratchDir};

/// The scenario: two versions, three runs each, every event variant.
fn events() -> Vec<TraceEvent> {
    Scenario {
        versions: 2,
        pes: vec![1, 4, 16],
        ..Scenario::new(46)
    }
    .events()
}

/// Bytes of `events` in the form a version-2 producer sent them: per
/// batch of 256 a frame header, kind, first sequence number and count,
/// then `len u32 | encode_wire` per event.
fn entry_form_bytes(events: &[TraceEvent]) -> usize {
    let batches = events.len().div_ceil(256);
    let entries: usize = events
        .iter()
        .map(|event| {
            let mut bytes = Vec::new();
            event.encode_wire(&mut bytes);
            4 + bytes.len()
        })
        .sum();
    batches * (8 + 1 + 8 + 4) + entries
}

#[test]
fn wire_and_log_bytes_per_event_are_pinned() {
    let events = events();
    let dir = ScratchDir::new("bytes-ledger");
    let engine = Arc::new(
        EngineBuilder::new()
            .durable(dir.path())
            .snapshot_every_flushes(0)
            .build()
            .expect("durable engine"),
    );
    let server = EngineServer::bind(
        "127.0.0.1:0",
        Arc::clone(&engine) as Arc<dyn AnalysisEngine>,
        ServerConfig::default(),
    )
    .expect("bind");
    let mut producer = TraceProducer::connect(
        server.local_addr().to_string(),
        ProducerConfig {
            producer_id: 46,
            batch_events: 256,
            ..ProducerConfig::default()
        },
    )
    .expect("connect");
    for event in &events {
        producer.send(event).expect("send");
    }
    let sent = producer.close().expect("close");
    server.shutdown();

    // The goodbye frame: header and kind.
    let wire = sent.frame_bytes_sent - 9;
    let log = engine.metrics().counter("kojak_wal_appended_bytes_total");
    let on_disk = std::fs::metadata(dir.path().join(online::durable::WAL_FILE))
        .expect("log")
        .len()
        - WAL_HEADER_LEN;
    assert_eq!(log, on_disk);
    let n = events.len() as u64;
    println!(
        "{n} events: wire {wire} bytes ({:.2}/event), log {log} bytes ({:.2}/event), \
         entry batches {} bytes ({:.2}/event)",
        wire as f64 / n as f64,
        log as f64 / n as f64,
        entry_form_bytes(&events),
        entry_form_bytes(&events) as f64 / n as f64,
    );
    assert_eq!(n, 632, "events");
    // 47 801 bytes (75.63 per event) as a version-2 producer's entry
    // batches, which the log also held, as one-event frames of 70-odd
    // bytes each, before batch frames.
    assert_eq!(entry_form_bytes(&events), 47_801, "entry-batch bytes");
    // Batch frames: names and run keys once per frame. The log appends
    // the producer's frames as received, so the two counts are one.
    assert_eq!(wire, 21_806, "wire bytes");
    assert_eq!(log, 21_806, "log bytes");
    assert!(wire <= 40 * n && log <= 40 * n);
}
