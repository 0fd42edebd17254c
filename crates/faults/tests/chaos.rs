//! Chaos soak: a sharded durable engine streamed under a seeded fault
//! plan must (1) accept every event exactly once — applied or parked,
//! never dropped, never doubled — (2) never panic or poison, and (3)
//! once injection stops and the quarantined shards are reintegrated,
//! converge to reports **bit-identical** to a never-faulted sharded
//! session over the same stream.
//!
//! The sweep runs ≥ 20 distinct seeds; every failure message carries
//! its seed, and `FaultPlan { seed, .. }` reproduces the schedule.

use engine::{AnalysisEngine, ShardedConfig, ShardedSession};
use faults::FaultPlan;
use online::{DurableConfig, TraceEvent};
use testkit::{Scenario, ScratchDir};

const SEEDS: u64 = 24;
const SHARDS: usize = 3;

/// Two program versions per soak seed, so the router actually spreads
/// runs across shards and quarantines hit a strict subset of the state.
fn sim_events(seed: u64) -> Vec<TraceEvent> {
    Scenario {
        versions: 2,
        ..Scenario::new(seed)
    }
    .events()
}

fn sharded_config(faults: &faults::Faults) -> ShardedConfig {
    ShardedConfig {
        shards: SHARDS,
        durable: DurableConfig {
            faults: faults.clone(),
            ..testkit::durable_config(2)
        },
    }
}

#[test]
fn chaos_soak_converges_bit_identically_across_seeds() {
    assert!(
        faults::injection_compiled(),
        "the soak is meaningless without the `inject` feature"
    );

    let mut seeds_with_faults = 0u64;
    for seed in 0..SEEDS {
        let events = sim_events(seed);
        let faults = FaultPlan {
            seed,
            disk_per_mille: 80,
            net_per_mille: 0,
            // Bounded: the soak must converge without operator help.
            max_faults: 30,
        }
        .build();

        // Open under fire: a shard whose recovery draws a fault opens
        // quarantined, never fatal (a fresh directory has no snapshot,
        // so the one hard failure — a corrupt snapshot — cannot occur).
        let dir = ScratchDir::new(&format!("soak-{seed}"));
        let (session, _) = ShardedSession::open(dir.path(), sharded_config(&faults))
            .expect("open degrades, not fails");

        // Exactly-once ingest: every batch is fully accepted — applied
        // to healthy shards, parked for quarantined ones. Wholesale
        // shard failures quarantine-and-park behind the Ok; nothing
        // errors, nothing is lost, nothing is double-logged (a failed
        // WAL append leaves no frame behind).
        for batch in events.chunks(41) {
            let accepted = AnalysisEngine::ingest_batch(&session, batch)
                .unwrap_or_else(|e| panic!("seed {seed}: ingest must not fail: {e}"));
            assert_eq!(accepted, batch.len(), "seed {seed}: exactly-once accept");
            AnalysisEngine::flush(&session)
                .unwrap_or_else(|e| panic!("seed {seed}: flush must degrade, not fail: {e}"));
        }

        let state = session.degraded_state();
        let parked = state.parked_events();
        let metrics = AnalysisEngine::metrics(&session);
        assert_eq!(
            metrics.gauge("kojak_engine_shards_quarantined"),
            Some(state.quarantined.len() as u64),
            "seed {seed}: quarantine gauge must reconcile"
        );
        assert_eq!(
            metrics.gauge("kojak_engine_events_parked"),
            Some(parked as u64),
            "seed {seed}: parked gauge must reconcile"
        );
        if faults.injected_total() > 0 {
            seeds_with_faults += 1;
            // Every healthy shard reports the shared handle's counter;
            // the merged snapshot carries it once per healthy shard.
            let healthy = (SHARDS - state.quarantined.len()) as u64;
            assert_eq!(
                metrics.counter("kojak_faults_injected_total"),
                healthy * faults.injected_total(),
                "seed {seed}: injection counter must ride the metrics"
            );
        } else {
            assert!(
                !state.is_degraded(),
                "seed {seed}: degradation without any injected fault"
            );
        }

        // Faults stop; the operator reintegrates. The parked backlog
        // replays and the session must converge to a never-faulted
        // sharded session over the identical stream — bit for bit.
        faults.set_active(false);
        let replayed = session
            .reintegrate_all()
            .unwrap_or_else(|e| panic!("seed {seed}: clean reintegration must succeed: {e}"));
        assert_eq!(replayed, parked, "seed {seed}: replay the backlog exactly");
        assert!(!session.degraded_state().is_degraded());
        AnalysisEngine::flush(&session).expect("clean flush");

        let control_dir = ScratchDir::new(&format!("control-{seed}"));
        let (control, _) =
            ShardedSession::open(control_dir.path(), sharded_config(&faults::Faults::none()))
                .expect("open control");
        AnalysisEngine::ingest_batch(&control, &events).expect("control ingest");
        AnalysisEngine::flush(&control).expect("control flush");

        assert_eq!(
            AnalysisEngine::reports(&session),
            AnalysisEngine::reports(&control),
            "seed {seed}: converged reports must be bit-identical"
        );
        assert_eq!(
            AnalysisEngine::stats(&session).events_applied,
            AnalysisEngine::stats(&control).events_applied,
            "seed {seed}: exactly-once application"
        );
    }

    // The sweep must actually have soaked something: with an 8% disk
    // rate over hundreds of gated ops per seed, near-every seed injects.
    assert!(
        seeds_with_faults >= SEEDS * 3 / 4,
        "only {seeds_with_faults}/{SEEDS} seeds injected — rates too low to test anything"
    );
}

/// Durable state written *under* injection must stay recoverable: kill
/// the faulted session after convergence, reopen clean, and the reports
/// must survive the round-trip unchanged.
#[test]
fn chaos_survivors_recover_after_a_kill() {
    for seed in [3u64, 7, 19] {
        let events = sim_events(seed ^ 0x5A5A);
        let faults = FaultPlan {
            seed,
            disk_per_mille: 100,
            net_per_mille: 0,
            max_faults: 20,
        }
        .build();

        let dir = ScratchDir::new(&format!("kill-{seed}"));
        let (session, _) = ShardedSession::open(dir.path(), sharded_config(&faults)).expect("open");
        for batch in events.chunks(53) {
            AnalysisEngine::ingest_batch(&session, batch).expect("ingest");
            AnalysisEngine::flush(&session).expect("flush");
        }
        // Converge before the kill: parked events are volatile (held in
        // memory until reintegration), so an operator shutting down a
        // degraded session reintegrates first — exactly what
        // `DegradedState::parked_events` exists to surface.
        faults.set_active(false);
        session.reintegrate_all().expect("reintegrate");
        AnalysisEngine::flush(&session).expect("flush");
        let reports_at_kill = AnalysisEngine::reports(&session);
        drop(session); // killed: no checkpoint, no graceful shutdown

        let (recovered, _) =
            ShardedSession::open(dir.path(), sharded_config(&faults::Faults::none()))
                .expect("clean recovery");
        assert_eq!(
            AnalysisEngine::reports(&recovered),
            reports_at_kill,
            "seed {seed}: recovery must reproduce the pre-kill reports"
        );
    }
}
