//! E10 — wall-clock cost of durability: WAL frame encode/decode, durable
//! vs memory-only batch ingestion, and recovery from a full WAL vs from a
//! snapshot. The deeper measurements (overhead ratios, claim checks) live
//! in the harness experiment (`--e10`); these benches track the raw
//! per-operation costs across PRs.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use kojak_bench::data;
use kojak_bench::experiments::e10_durability::refinement_stream;
use online::{DurableConfig, FsyncPolicy, OnlineSession, SessionConfig, TraceEvent};
use std::path::PathBuf;

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("kojak-e10b-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn bench_durability(c: &mut Criterion) {
    let (store, _version) = data::particle_store(&(1..=8).collect::<Vec<_>>());
    let events = refinement_stream(&store);

    let mut g = c.benchmark_group("e10_durability");
    g.sample_size(10);
    g.throughput(Throughput::Elements(events.len() as u64));

    // Raw frame encode + parse of the whole stream (no I/O).
    g.bench_function("wal_frame_encode_decode", |b| {
        b.iter(|| {
            let mut buf = online::wal::wal_header(0);
            for event in &events {
                online::wal::frame_event(&mut buf, event);
            }
            let parsed = online::wal::parse_frames(&buf);
            assert!(parsed.corruption.is_none());
            parsed.events.len()
        })
    });

    // Memory-only vs durable ingestion of the full stream.
    g.bench_function("ingest_memory_only", |b| {
        b.iter(|| {
            let session = OnlineSession::new(SessionConfig::default());
            for batch in events.chunks(256) {
                session.ingest_batch(batch).expect("ingest");
            }
            session.stats().events_applied
        })
    });
    let dir = scratch("ingest");
    let mut generation = 0u64;
    g.bench_function("ingest_durable_no_fsync", |b| {
        b.iter(|| {
            generation += 1;
            let session_dir = dir.join(generation.to_string());
            let session = OnlineSession::open(
                &session_dir,
                DurableConfig {
                    session: SessionConfig::default(),
                    fsync: FsyncPolicy::Never,
                    snapshot_every_flushes: 0,
                    faults: Default::default(),
                },
            )
            .expect("open");
            for batch in events.chunks(256) {
                session.ingest_batch(batch).expect("ingest");
            }
            let applied = session.stats().events_applied;
            drop(session);
            let _ = std::fs::remove_dir_all(&session_dir);
            applied
        })
    });
    let _ = std::fs::remove_dir_all(&dir);

    // Recovery paths over one identical history.
    let mk_dir = |checkpoint: bool, name: &str| -> PathBuf {
        let dir = scratch(name);
        let session = OnlineSession::open(
            &dir,
            DurableConfig {
                session: SessionConfig::default(),
                fsync: FsyncPolicy::Never,
                snapshot_every_flushes: 0,
                faults: Default::default(),
            },
        )
        .expect("open");
        for batch in events.chunks(256) {
            session.ingest_batch(batch).expect("ingest");
        }
        if checkpoint {
            session.checkpoint().expect("checkpoint");
        } else {
            session.flush().expect("flush");
        }
        dir
    };
    let wal_dir = mk_dir(false, "recover-wal");
    let snap_dir = mk_dir(true, "recover-snap");
    g.bench_function("recover_full_wal_replay", |b| {
        b.iter(|| {
            let (session, _stats) =
                OnlineSession::recover(&wal_dir, SessionConfig::default()).expect("recover");
            session.stats().events_applied
        })
    });
    g.bench_function("recover_from_snapshot", |b| {
        b.iter(|| {
            let (session, _stats) =
                OnlineSession::recover(&snap_dir, SessionConfig::default()).expect("recover");
            session.stats().events_applied
        })
    });
    let _ = std::fs::remove_dir_all(&wal_dir);
    let _ = std::fs::remove_dir_all(&snap_dir);

    // Frames must survive round-trips under load: keep the cheap sanity
    // assertion in the bench so a codec regression fails loudly here too.
    let mut buf = Vec::new();
    for event in &events[..64.min(events.len())] {
        buf.clear();
        event.encode_wire(&mut buf);
        assert_eq!(&TraceEvent::decode_wire(&buf).expect("decode"), event);
    }

    g.finish();
}

criterion_group!(benches, bench_durability);
criterion_main!(benches);
