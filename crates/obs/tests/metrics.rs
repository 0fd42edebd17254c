//! Unit suite for the instrumentation primitives: histogram bucket
//! boundaries and overflow, merge associativity (the shard fan-in
//! contract), the snapshot codec, the text exposition, and the runtime
//! off switch.

use obs::{
    bucket_index, bucket_upper_bound, Counter, Gauge, Histogram, HistogramSnapshot,
    MetricsRegistry, MetricsSnapshot, MetricsSource, SnapshotDecodeError, StageTimer,
    HISTOGRAM_BUCKETS,
};

/// Exactly one test mutates the process-wide enabled flag
/// ([`disabling_mutes_every_primitive`]); it holds this lock for its
/// whole body and restores the flag before releasing, and every test
/// that depends on the default-enabled state takes the same lock.
static ENABLED_FLAG: std::sync::Mutex<()> = std::sync::Mutex::new(());

fn with_default_enabled<R>(f: impl FnOnce() -> R) -> R {
    let _guard = ENABLED_FLAG.lock().unwrap_or_else(|e| e.into_inner());
    f()
}

/// A snapshot built without recording.
fn sample_snapshot() -> MetricsSnapshot {
    let mut snap = MetricsSnapshot::default();
    snap.push_counter("kojak_a_total", 123);
    snap.push_counter("kojak_b_total", u64::MAX / 2);
    snap.push_gauge("kojak_depth", 77);
    let mut h = HistogramSnapshot::default();
    for v in [0u64, 1, 900, 65_000, 1 << 50] {
        h.count += 1;
        h.sum += v;
        h.max = h.max.max(v);
        h.buckets[bucket_index(v)] += 1;
    }
    snap.push_histogram("kojak_stage_ns", h);
    snap
}

#[test]
fn bucket_boundaries_are_powers_of_two() {
    // 0 is its own bucket; [2^(i-1), 2^i - 1] lands in bucket i.
    assert_eq!(bucket_index(0), 0);
    assert_eq!(bucket_index(1), 1);
    assert_eq!(bucket_index(2), 2);
    assert_eq!(bucket_index(3), 2);
    assert_eq!(bucket_index(4), 3);
    assert_eq!(bucket_index(1023), 10);
    assert_eq!(bucket_index(1024), 11);
    for i in 1..HISTOGRAM_BUCKETS - 1 {
        let hi = bucket_upper_bound(i);
        assert_eq!(bucket_index(hi), i, "upper bound of bucket {i}");
        assert_eq!(bucket_index(hi + 1), i + 1, "first value past bucket {i}");
    }
}

#[test]
fn overflow_bucket_catches_the_top_of_the_range() {
    assert_eq!(bucket_index(u64::MAX), HISTOGRAM_BUCKETS - 1);
    assert_eq!(bucket_index(1u64 << 63), HISTOGRAM_BUCKETS - 1);
    assert_eq!(bucket_index((1u64 << 63) - 1), HISTOGRAM_BUCKETS - 2);
    assert_eq!(bucket_upper_bound(HISTOGRAM_BUCKETS - 1), u64::MAX);
    assert_eq!(bucket_upper_bound(0), 0);

    let mut h = HistogramSnapshot {
        count: 1,
        sum: u64::MAX,
        max: u64::MAX,
        ..HistogramSnapshot::default()
    };
    h.buckets[HISTOGRAM_BUCKETS - 1] = 1;
    assert_eq!(h.p99(), u64::MAX);
}

#[test]
fn quantiles_report_bucket_upper_bounds() {
    let mut h = HistogramSnapshot::default();
    for v in 1..=100u64 {
        h.count += 1;
        h.sum += v;
        h.max = h.max.max(v);
        h.buckets[bucket_index(v)] += 1;
    }
    assert_eq!(h.count, 100);
    assert_eq!(h.sum, 5050);
    assert_eq!(h.max, 100);
    // The true p50 is 50 (bucket [32,63]); the reported bound is 63.
    assert_eq!(h.p50(), 63);
    // p90 = 90 and p99 = 99 both land in bucket [64,127], whose bound
    // (127) exceeds the observed max, so the max caps the estimate.
    assert_eq!(h.p90(), 100);
    assert_eq!(h.p99(), 100);
    assert_eq!(h.mean(), 50);
    assert_eq!(HistogramSnapshot::default().quantile(0.99), 0);
    assert_eq!(HistogramSnapshot::default().mean(), 0);
}

#[test]
fn merge_is_associative_and_commutative() {
    with_default_enabled(|| {
        // Three "shards" with different sample populations.
        let shards: [Vec<u64>; 3] = [
            (1u64..=40).collect(),
            (500u64..=520).collect(),
            vec![0, 0, 7, 1 << 40],
        ];
        let snaps: Vec<HistogramSnapshot> = shards
            .iter()
            .map(|samples| {
                let h = Histogram::new();
                for &v in samples {
                    h.record(v);
                }
                h.snapshot()
            })
            .collect();

        // (a ⊕ b) ⊕ c == a ⊕ (b ⊕ c) == c ⊕ (b ⊕ a)
        let mut left = snaps[0].clone();
        left.merge(&snaps[1]);
        left.merge(&snaps[2]);
        let mut right = snaps[1].clone();
        right.merge(&snaps[2]);
        let mut right_outer = snaps[0].clone();
        right_outer.merge(&right);
        let mut reversed = snaps[2].clone();
        reversed.merge(&snaps[1]);
        reversed.merge(&snaps[0]);
        assert_eq!(left, right_outer);
        assert_eq!(left, reversed);

        // And the merge equals recording everything into one histogram.
        let whole = Histogram::new();
        for samples in &shards {
            for &v in samples {
                whole.record(v);
            }
        }
        assert_eq!(left, whole.snapshot());
    });
}

#[test]
fn counters_and_gauges_record() {
    with_default_enabled(|| {
        let c = Counter::new();
        c.inc();
        c.add(41);
        assert_eq!(c.get(), 42);
        let g = Gauge::new();
        g.set(7);
        g.set(3);
        assert_eq!(g.get(), 3);
    });
}

#[test]
fn registry_hands_out_shared_handles() {
    with_default_enabled(|| {
        let registry = MetricsRegistry::new();
        let a = registry.counter("kojak_test_events_total");
        let b = registry.counter("kojak_test_events_total");
        a.add(2);
        b.inc();
        assert_eq!(registry.counter("kojak_test_events_total").get(), 3);
        registry.gauge("kojak_test_depth").set(9);
        registry.histogram("kojak_test_stage_ns").record(1000);

        let snap = registry.metrics();
        assert_eq!(snap.counter("kojak_test_events_total"), 3);
        assert_eq!(snap.gauge("kojak_test_depth"), Some(9));
        assert_eq!(snap.histogram("kojak_test_stage_ns").unwrap().count, 1);
        assert_eq!(snap.counter("kojak_absent_total"), 0);
        assert_eq!(snap.gauge("kojak_absent"), None);
        assert!(!snap.is_empty());
        assert!(MetricsSnapshot::default().is_empty());
    });
}

#[test]
fn snapshot_merge_sums_counters_and_maxes_gauges() {
    let mut a = MetricsSnapshot::default();
    a.push_counter("events_total", 10);
    a.push_gauge("depth", 4);
    let mut b = MetricsSnapshot::default();
    b.push_counter("events_total", 5);
    b.push_counter("other_total", 1);
    b.push_gauge("depth", 2);
    a.merge(&b);
    assert_eq!(a.counter("events_total"), 15);
    assert_eq!(a.counter("other_total"), 1);
    assert_eq!(a.gauge("depth"), Some(4));
}

#[test]
fn codec_roundtrips_and_rejects_hostile_bytes() {
    let snap = sample_snapshot();
    let bytes = snap.encode();
    let decoded = MetricsSnapshot::decode(&bytes).expect("roundtrip");
    assert_eq!(decoded, snap);
    // Determinism: same state, same bytes.
    assert_eq!(decoded.encode(), bytes);

    assert_eq!(
        MetricsSnapshot::decode(b"nope"),
        Err(SnapshotDecodeError::BadMagic)
    );
    let mut wrong_version = bytes.clone();
    wrong_version[4] = 9;
    assert_eq!(
        MetricsSnapshot::decode(&wrong_version),
        Err(SnapshotDecodeError::UnsupportedVersion(9))
    );
    // Every truncation point fails cleanly, never panics.
    for len in 0..bytes.len() {
        MetricsSnapshot::decode(&bytes[..len]).expect_err("truncated");
    }
    let mut trailing = bytes.clone();
    trailing.push(0);
    assert_eq!(
        MetricsSnapshot::decode(&trailing),
        Err(SnapshotDecodeError::TrailingBytes { remaining: 1 })
    );
    // A hostile element count can't drive a huge loop: 0xFFFFFFFF
    // counters in a 9-byte tail is implausible on its face.
    let mut hostile = b"KOBS\x01".to_vec();
    hostile.extend_from_slice(&u32::MAX.to_le_bytes());
    hostile.extend_from_slice(&[0; 9]);
    assert_eq!(
        MetricsSnapshot::decode(&hostile),
        Err(SnapshotDecodeError::ImplausibleCount {
            what: "counter count"
        })
    );
}

#[test]
fn render_text_is_deterministic_prometheus_style() {
    let mut snap = sample_snapshot();
    snap.push_counter(
        "kojak_eval_property_evaluations_total{property=\"speedup\"}",
        2,
    );
    let text = snap.render_text();

    assert!(text.contains("# TYPE kojak_a_total counter\nkojak_a_total 123\n"));
    // The TYPE line strips the label; the sample line keeps it.
    assert!(text.contains("# TYPE kojak_eval_property_evaluations_total counter\n"));
    assert!(text.contains("kojak_eval_property_evaluations_total{property=\"speedup\"} 2\n"));
    assert!(text.contains("# TYPE kojak_depth gauge\nkojak_depth 77\n"));
    assert!(text.contains("# TYPE kojak_stage_ns summary\n"));
    assert!(text.contains("kojak_stage_ns{quantile=\"0.5\"} "));
    assert!(text.contains(&format!("kojak_stage_ns_max {}\n", 1u64 << 50)));
    assert!(text.contains("kojak_stage_ns_count 5\n"));
    assert_eq!(text, sample_snapshot_with_label().render_text());
}

fn sample_snapshot_with_label() -> MetricsSnapshot {
    let mut snap = sample_snapshot();
    snap.push_counter(
        "kojak_eval_property_evaluations_total{property=\"speedup\"}",
        2,
    );
    snap
}

#[test]
fn stage_timer_records_on_drop_and_maybe_disarms() {
    with_default_enabled(|| {
        let h = Histogram::new();
        {
            let _timer = h.start_timer();
            std::hint::black_box(0);
        }
        assert_eq!(h.count(), 1);
        {
            let _timer = StageTimer::maybe(None);
        }
        {
            let _timer = StageTimer::disarmed();
        }
        assert_eq!(h.count(), 1);
        {
            let _timer = StageTimer::maybe(Some(&h));
        }
        assert_eq!(h.count(), 2);
    });
}

/// The runtime kill switch mutes every primitive. This is the only test
/// allowed to toggle the flag, and it holds the lock for its whole body
/// so concurrently-running recording tests never observe the off state.
#[test]
fn disabling_mutes_every_primitive() {
    let _guard = ENABLED_FLAG.lock().unwrap_or_else(|e| e.into_inner());
    let restore = restore_enabled_on_drop();
    obs::set_enabled(false);
    assert!(!obs::enabled());

    let c = Counter::new();
    c.inc();
    c.add(10);
    let g = Gauge::new();
    g.set(5);
    let h = Histogram::new();
    h.record(100);
    {
        let _timer = h.start_timer();
    }
    assert_eq!(c.get(), 0);
    assert_eq!(g.get(), 0);
    assert_eq!(h.count(), 0);
    assert_eq!(h.snapshot(), HistogramSnapshot::default());
    drop(restore);

    // Back on, recording resumes on the same handles.
    assert!(obs::enabled());
    c.inc();
    h.record(7);
    assert_eq!(c.get(), 1);
    assert_eq!(h.count(), 1);
}

/// Restores the enabled flag even if the test body panics, so one
/// failure doesn't cascade into every other test in the binary.
fn restore_enabled_on_drop() -> impl Drop {
    struct Restore;
    impl Drop for Restore {
        fn drop(&mut self) {
            obs::set_enabled(true);
        }
    }
    Restore
}

/// Generous smoke bound: recording must stay cheap. We don't assert
/// nanoseconds (CI machines vary wildly); we assert a million counter
/// bumps complete promptly and are all counted.
#[test]
fn overhead_smoke() {
    with_default_enabled(|| {
        let c = Counter::new();
        let start = std::time::Instant::now();
        for _ in 0..1_000_000 {
            c.inc();
        }
        let elapsed = start.elapsed();
        assert_eq!(c.get(), 1_000_000);
        assert!(
            elapsed < std::time::Duration::from_secs(5),
            "1M counter bumps took {elapsed:?} — instrumentation is not cheap"
        );
    });
}
