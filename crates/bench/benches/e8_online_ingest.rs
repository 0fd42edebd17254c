//! E8 — wall-clock cost of absorbing one new test run: incremental online
//! ingestion + flush vs full batch re-analysis of the whole store.

use cosy::{Analyzer, Backend, ProblemThreshold};
use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use kojak_bench::data;
use online::replay::events_for_run;
use online::{OnlineSession, RunKey, SessionConfig};
use perfdata::TestRunId;
use std::sync::Arc;

const BASE_RUNS: usize = 50;

fn bench_online_ingest(c: &mut Criterion) {
    let threshold = ProblemThreshold::default();
    let mut pe_counts: Vec<u32> = (1..=BASE_RUNS as u32).collect();
    pe_counts.push(64);
    let (store, version) = data::particle_store(&pe_counts);
    let appended = TestRunId(BASE_RUNS as u32);
    let template = events_for_run(&store, appended);

    let mut g = c.benchmark_group("e8_online_ingest");
    g.sample_size(10);
    g.throughput(Throughput::Elements(template.len() as u64));

    // Session pre-loaded with the base runs; each iteration appends the
    // 64-PE run's event stream under a fresh producer key.
    let session = OnlineSession::new(SessionConfig {
        threshold,
        ..SessionConfig::default()
    });
    for r in 0..BASE_RUNS as u32 {
        session
            .ingest_batch(&events_for_run(&store, TestRunId(r)))
            .expect("base ingest");
    }
    session.flush().expect("base flush");
    let mut next_key = 1_000_000u64;
    g.bench_function("incremental_single_run_append", |b| {
        b.iter(|| {
            let key = RunKey(next_key);
            next_key += 1;
            let events: Vec<_> = template.iter().map(|e| e.clone().with_run(key)).collect();
            session.ingest_batch(&events).expect("append");
            session.flush().expect("flush")
        })
    });

    let spec = Arc::new(cosy::suite::standard_suite());
    g.bench_function("full_batch_reanalysis", |b| {
        b.iter(|| {
            let analyzer =
                Analyzer::with_spec(&store, version, Arc::clone(&spec)).expect("analyzer");
            let mut entries = 0usize;
            for r in 0..store.runs.len() as u32 {
                entries += analyzer
                    .analyze(TestRunId(r), Backend::Compiled, threshold)
                    .expect("analysis")
                    .entries
                    .len();
            }
            entries
        })
    });
    g.finish();
}

criterion_group!(benches, bench_online_ingest);
criterion_main!(benches);
