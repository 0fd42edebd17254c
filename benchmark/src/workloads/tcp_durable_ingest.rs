//! `tcp_durable_ingest` — the ingest path end to end: one
//! `TraceProducer` → loopback TCP → `EngineServer` → a durable engine on
//! two shards (`FsyncPolicy::Never`, no automatic snapshots). The stream
//! is refinement-heavy: 96 runs whose measurement events are re-sent as
//! running totals round after round. Half-way the harness flushes the
//! producer and checkpoints the engine; after the last event it closes
//! the producer (the server flushes on goodbye) and reads `reports()`.
//! Then engine and server are dropped *without* a checkpoint and the
//! directory is re-opened: snapshot load + WAL-tail replay of the second
//! half + one flush, and the recovered reports are checked too.
//!
//! Why: wire encode/decode, framing, routing, WAL group commit and store
//! upserts are ≈ 85 % of the pass, so ingest-path work shows here and
//! evaluator work barely does; recovery uses the WAL and snapshot layers
//! in the read direction. A closed loop (one connection, window 4096) is
//! the real traffic shape: the producer protocol is windowed and
//! blocking by design. `FsyncPolicy::Never` keeps shared-disk latency out
//! of the end-to-end numbers.

use super::{
    reports_reference, Name, PassClock, PassOutcome, ScratchDir, SetUp, SetUpArgs, Workload, BATCH,
};
use crate::fingerprint::Prints;
use crate::gen::{self, Phase, RefinementStream};
use crate::trace::Tracer;
use kojak::engine::{AnalysisEngine, Engine, EngineBuilder};
use kojak::net::{EngineServer, NetStats, ProducerConfig, ServerConfig, TraceProducer};
use kojak::online::{FsyncPolicy, TraceEvent};
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// Times every run's measurement events are sent.
const ROUNDS: u32 = 16;
const SHARDS: usize = 2;

pub struct TcpDurableIngest {
    stream: RefinementStream,
    canary: u64,
    expected: Prints,
}

pub fn set_up(args: SetUpArgs<'_>) -> Result<SetUp, String> {
    let store = gen::ingest_store(args.seed);
    let stream = RefinementStream::new(&store, ROUNDS);
    let (canary, events) = stream.canary();
    let (expected, oracle_s, oracle_from) =
        reports_reference(Name::TcpDurableIngest, args, canary, events, &store)?;
    Ok(SetUp {
        workload: Box::new(TcpDurableIngest {
            stream,
            canary,
            expected,
        }),
        oracle_s,
        oracle_from,
    })
}

pub fn open(dir: &Path) -> Result<Engine, String> {
    EngineBuilder::new()
        .durable(dir)
        .shards(SHARDS)
        .fsync(FsyncPolicy::Never)
        .snapshot_every_flushes(0)
        .build()
        .map_err(|e| format!("engine open: {e}"))
}

/// A server on an ephemeral loopback port fronting `engine`, flushing
/// only on goodbye.
pub fn bind(engine: Arc<dyn AnalysisEngine>, tracer: &mut Tracer) -> Result<EngineServer, String> {
    tracer
        .span("kojak-net.bind", 1, |_| {
            EngineServer::bind(
                "127.0.0.1:0",
                engine,
                ServerConfig {
                    window: 4096,
                    flush_every_events: 0,
                    ..ServerConfig::default()
                },
            )
        })
        .map_err(|e| format!("bind: {e}"))
}

/// Stream `stream` through one producer to `server`; half-way, flush the
/// producer and checkpoint the server's engine; at the end, close (the
/// server flushes on goodbye). Returns the producer's final counters and
/// the instant the last event was handed over.
pub fn stream_over_tcp(
    stream: &RefinementStream,
    scratch: &mut [TraceEvent],
    server: &EngineServer,
    tracer: &mut Tracer,
) -> Result<(NetStats, Instant), String> {
    let mut producer = tracer
        .span("kojak-net.connect", 1, |_| {
            TraceProducer::connect(
                server.local_addr().to_string(),
                ProducerConfig {
                    producer_id: 1,
                    batch_events: BATCH,
                    ..ProducerConfig::default()
                },
            )
        })
        .map_err(|e| format!("connect: {e}"))?;
    let mut last_input = Instant::now();
    stream.play(scratch, |phase, events| {
        if phase == Phase::Half {
            tracer
                .span("kojak-net.flush", 1, |_| producer.flush())
                .map_err(|e| format!("producer flush: {e}"))?;
            return tracer
                .span("kojak-engine.checkpoint", 1, |_| {
                    server.engine().checkpoint()
                })
                .map_err(|e| format!("checkpoint: {e}"));
        }
        tracer.span("kojak-net.send", events.len() as u64, |_| {
            for event in events {
                last_input = Instant::now();
                producer.send(event).map_err(|e| format!("send: {e}"))?;
            }
            Ok(())
        })
    })?;
    let stats = tracer
        .span("kojak-net.close", 1, |_| producer.close())
        .map_err(|e| format!("close: {e}"))?;
    Ok((stats, last_input))
}

impl Workload for TcpDurableIngest {
    fn canary(&self) -> u64 {
        self.canary
    }

    fn events_per_pass(&self) -> u64 {
        self.stream.events_total()
    }

    fn pass(&self, pass_no: usize, tracer: &mut Tracer) -> Result<PassOutcome, String> {
        let mut out = PassOutcome::default();
        let events = self.stream.events_total();
        // events + producer flush + checkpoint + close + two report reads
        // + one recovery.
        out.attempted = events + 6;
        let dir = ScratchDir::new(&pass_no.to_string())?;
        let mut scratch = self.stream.scratch();

        let clock = PassClock::start();
        let engine = Arc::new(tracer.span("kojak-engine.build", 1, |_| open(&dir.0))?);
        // Dropping the server (on any path out of here) joins its threads.
        let server = bind(Arc::clone(&engine) as Arc<dyn AnalysisEngine>, tracer)?;
        let (net, last_input) = stream_over_tcp(&self.stream, &mut scratch, &server, tracer)?;
        let reports = tracer.span("kojak-engine.reports", 1, |_| engine.reports());
        clock.stop(&mut out);
        out.latencies_ms
            .push(("stream", last_input.elapsed().as_secs_f64() * 1e3));
        drop(server);

        let lost = events.saturating_sub(net.events_acked);
        out.fail(lost, || {
            format!("{lost} of {events} events never acknowledged")
        });
        out.fail(net.reconnects, || {
            format!("{} reconnect(s)", net.reconnects)
        });
        let stats = engine.stats();
        out.fail(stats.events_rejected, || {
            format!("{} event(s) rejected", stats.events_rejected)
        });
        out.check_reports("reports over TCP", &self.expected, &reports);
        drop(reports);

        // Kill: drop the engine without a checkpoint, then recover.
        drop(
            Arc::try_unwrap(engine)
                .map_err(|_| "the server still holds the engine after shutdown")?,
        );
        let t = Instant::now();
        let engine = tracer.span("kojak-engine.recover", 1, |_| open(&dir.0))?;
        let reports = tracer.span("kojak-engine.recovered_reports", 1, |_| engine.reports());
        out.recover_s = Some(t.elapsed().as_secs_f64());
        out.check_reports("recovered reports", &self.expected, &reports);
        out.counts = vec![
            ("events_applied", stats.events_applied),
            ("batches_sent", net.batches_sent),
            ("acks_received", net.acks_received),
            ("events_resent", net.events_resent),
            ("reconnects", net.reconnects),
            (
                "wal_events_replayed",
                engine
                    .recovery()
                    .unwrap_or_default()
                    .iter()
                    .map(|r| r.wal_events_replayed)
                    .sum(),
            ),
        ];
        Ok(out)
    }
}
