//! Full-stack chaos: `TraceProducer` → TCP → `EngineServer` → sharded
//! durable engine, with *both* fault families live — connection resets,
//! partial writes and delays on the sockets, plus WAL/snapshot failures
//! under the shards. The producer's reconnect-with-resume and the
//! engine's quarantine-and-park must compose: once injection stops and
//! the quarantined shards reintegrate, the reports are bit-identical to
//! a clean stack over the same stream, with nothing lost or doubled
//! along the way.
//!
//! Compiled only with `--features faults`; the passthrough build has
//! nothing to soak.

#![cfg(feature = "faults")]

use kojak::engine::{AnalysisEngine, ShardedConfig, ShardedSession};
use kojak::faults::{FaultPlan, Faults};
use kojak::net::{EngineServer, ProducerConfig, ServerConfig, TraceProducer};
use kojak::online::{DurableConfig, TraceEvent};
use std::sync::Arc;
use std::time::Duration;
use testkit::{Scenario, ScratchDir};

const SHARDS: usize = 3;

fn sim_events(seed: u64) -> Vec<TraceEvent> {
    Scenario {
        versions: 2,
        ..Scenario::new(seed)
    }
    .events()
}

fn sharded_config(faults: &Faults) -> ShardedConfig {
    ShardedConfig {
        shards: SHARDS,
        durable: DurableConfig {
            faults: faults.clone(),
            ..testkit::durable_config(2)
        },
    }
}

#[test]
fn faulted_stack_converges_to_the_clean_stack() {
    assert!(kojak::faults::injection_compiled());

    let mut total_injected = 0u64;
    for seed in [2u64, 9, 17, 31] {
        let events = sim_events(seed);
        let faults = FaultPlan {
            seed,
            disk_per_mille: 60,
            net_per_mille: 40,
            // Bounded: reconnect budgets and the soak must converge.
            max_faults: 25,
        }
        .build();

        // Open the sharded durable engine under fire (shards whose
        // recovery draws a fault open quarantined, not fatal) and put
        // the TCP server in front of it, sockets gated by the same plan.
        let dir = ScratchDir::new(&format!("seed-{seed}"));
        faults.set_active(false); // deterministic handshake for connect()
        let (session, _) = ShardedSession::open(dir.path(), sharded_config(&faults)).expect("open");
        let engine = Arc::new(session);
        let server = EngineServer::bind(
            "127.0.0.1:0",
            engine.clone(),
            ServerConfig {
                flush_every_events: 64,
                // Injected resets *are* protocol-error-shaped; do not
                // quarantine the producer for our own chaos.
                max_producer_protocol_errors: 0,
                faults: faults.clone(),
                ..ServerConfig::default()
            },
        )
        .expect("bind");
        let mut producer = TraceProducer::connect(
            server.local_addr().to_string(),
            ProducerConfig {
                producer_id: 7,
                batch_events: 32,
                reconnect_attempts: 64,
                reconnect_backoff: Duration::from_millis(1),
                reconnect_backoff_cap: Duration::from_millis(8),
                faults: faults.clone(),
                ..ProducerConfig::default()
            },
        )
        .expect("connect");
        faults.set_active(true);

        // Stream under fire. Every injected failure — a reset socket, a
        // partial frame, a shard's WAL refusing the append — must be
        // absorbed: resets by reconnect-with-resume, shard failures by
        // quarantine-and-park behind an accepted batch.
        for event in &events {
            producer
                .send(event)
                .unwrap_or_else(|e| panic!("seed {seed}: send must be absorbed: {e}"));
        }
        let net_stats = producer
            .close()
            .unwrap_or_else(|e| panic!("seed {seed}: close must be absorbed: {e}"));
        server.shutdown();
        total_injected += faults.injected_total();

        // Faults stop; reintegrate whatever was parked and compare with
        // a clean in-process stack over the identical stream.
        faults.set_active(false);
        engine
            .reintegrate_all()
            .unwrap_or_else(|e| panic!("seed {seed}: clean reintegration must succeed: {e}"));
        AnalysisEngine::flush(&*engine).expect("clean flush");

        let control_dir = ScratchDir::new(&format!("control-{seed}"));
        let (control, _) =
            ShardedSession::open(control_dir.path(), sharded_config(&Faults::none()))
                .expect("control");
        AnalysisEngine::ingest_batch(&control, &events).expect("control ingest");
        AnalysisEngine::flush(&control).expect("control flush");

        assert_eq!(
            AnalysisEngine::reports(&*engine),
            AnalysisEngine::reports(&control),
            "seed {seed}: converged reports must be bit-identical \
             ({} faults injected, {} reconnects)",
            faults.injected_total(),
            net_stats.reconnects,
        );
        assert_eq!(
            AnalysisEngine::stats(&*engine).events_applied,
            AnalysisEngine::stats(&control).events_applied,
            "seed {seed}: exactly-once application across the wire"
        );
    }

    assert!(
        total_injected > 0,
        "the sweep never injected — rates too low to test the stack"
    );
}
