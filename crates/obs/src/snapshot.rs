//! The composable snapshot type: what every layer's stats collect into,
//! what the `Introspect` RPC ships, and what `render_text` turns into a
//! diffable Prometheus-style artifact.

use crate::metric::{HistogramSnapshot, HISTOGRAM_BUCKETS};
use std::collections::BTreeMap;
use std::fmt;

/// Anything that can contribute metrics to a [`MetricsSnapshot`]: the
/// registry itself, and every layer's stats struct (`SessionStats`,
/// `NetStats`, `ServerStats`, …). This is the
/// deduplication seam — the hand-rolled stats structs stay as plain
/// data, but all expose themselves through one vocabulary.
pub trait MetricsSource {
    /// Add this source's metrics to `out` (summing into any counters
    /// already present under the same name — see
    /// [`MetricsSnapshot::push_counter`]).
    fn collect_into(&self, out: &mut MetricsSnapshot);

    /// This source's metrics as a fresh snapshot.
    fn metrics(&self) -> MetricsSnapshot {
        let mut out = MetricsSnapshot::default();
        self.collect_into(&mut out);
        out
    }
}

/// A point-in-time, plain-data view of a metric set. Ordered maps make
/// the text exposition and the wire encoding deterministic, so two
/// snapshots of the same state are byte-identical.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MetricsSnapshot {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, u64>,
    histograms: BTreeMap<String, HistogramSnapshot>,
}

impl MetricsSnapshot {
    /// Add to the counter named `name` (created at 0 if absent). Summing
    /// — rather than overwriting — is what makes shard fan-in work: four
    /// shards each pushing `kojak_wal_fsyncs_total` yield their total.
    pub fn push_counter(&mut self, name: &str, value: u64) {
        *self.counters.entry(name.to_owned()).or_insert(0) += value;
    }

    /// Set the gauge named `name`. Gauges are last-write-wins; merging
    /// snapshots keeps the larger value (the only order-independent
    /// choice for quantities like window headroom).
    pub fn push_gauge(&mut self, name: &str, value: u64) {
        let slot = self.gauges.entry(name.to_owned()).or_insert(0);
        *slot = (*slot).max(value);
    }

    /// Merge into the histogram named `name` (created empty if absent).
    pub fn push_histogram(&mut self, name: &str, value: HistogramSnapshot) {
        self.histograms
            .entry(name.to_owned())
            .or_default()
            .merge(&value);
    }

    /// Fold another snapshot in: counters and histogram buckets add,
    /// gauges keep the larger value. Associative and commutative, so a
    /// sharded engine can merge per-shard snapshots in any order.
    pub fn merge(&mut self, other: &MetricsSnapshot) {
        for (name, v) in &other.counters {
            self.push_counter(name, *v);
        }
        for (name, v) in &other.gauges {
            self.push_gauge(name, *v);
        }
        for (name, h) in &other.histograms {
            self.push_histogram(name, h.clone());
        }
    }

    /// The counter named `name`, or 0 if absent.
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// The gauge named `name`, if present.
    pub fn gauge(&self, name: &str) -> Option<u64> {
        self.gauges.get(name).copied()
    }

    /// The histogram named `name`, if present.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms.get(name)
    }

    /// Iterate counters in name order.
    pub fn counters(&self) -> impl Iterator<Item = (&str, u64)> {
        self.counters.iter().map(|(k, v)| (k.as_str(), *v))
    }

    /// Iterate gauges in name order.
    pub fn gauges(&self) -> impl Iterator<Item = (&str, u64)> {
        self.gauges.iter().map(|(k, v)| (k.as_str(), *v))
    }

    /// Iterate histograms in name order.
    pub fn histograms(&self) -> impl Iterator<Item = (&str, &HistogramSnapshot)> {
        self.histograms.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// True when nothing has been recorded into this snapshot.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.gauges.is_empty() && self.histograms.is_empty()
    }

    /// Prometheus-style text exposition: counters and gauges as one line
    /// each, histograms as summaries (`{quantile="0.5"}`… plus `_max`,
    /// `_sum`, `_count`). Deterministic (name-ordered), so two snapshots
    /// diff line-by-line.
    pub fn render_text(&self) -> String {
        use fmt::Write as _;
        let mut out = String::new();
        for (name, v) in &self.counters {
            let _ = writeln!(out, "# TYPE {} counter", base_name(name));
            let _ = writeln!(out, "{name} {v}");
        }
        for (name, v) in &self.gauges {
            let _ = writeln!(out, "# TYPE {} gauge", base_name(name));
            let _ = writeln!(out, "{name} {v}");
        }
        for (name, h) in &self.histograms {
            let _ = writeln!(out, "# TYPE {} summary", base_name(name));
            for (q, v) in [(0.5, h.p50()), (0.9, h.p90()), (0.99, h.p99())] {
                let _ = writeln!(out, "{}{{quantile=\"{q}\"}} {v}", base_name(name));
            }
            let _ = writeln!(out, "{}_max {}", base_name(name), h.max);
            let _ = writeln!(out, "{}_sum {}", base_name(name), h.sum);
            let _ = writeln!(out, "{}_count {}", base_name(name), h.count);
        }
        out
    }

    /// Serialize to the self-contained `KOBS` binary format (what the
    /// `Introspect` RPC returns). Little-endian throughout; histograms
    /// ship only their non-zero buckets.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(256);
        out.extend_from_slice(SNAPSHOT_MAGIC);
        out.push(SNAPSHOT_VERSION);
        put_u32(&mut out, self.counters.len() as u32);
        for (name, v) in &self.counters {
            put_str(&mut out, name);
            put_u64(&mut out, *v);
        }
        put_u32(&mut out, self.gauges.len() as u32);
        for (name, v) in &self.gauges {
            put_str(&mut out, name);
            put_u64(&mut out, *v);
        }
        put_u32(&mut out, self.histograms.len() as u32);
        for (name, h) in &self.histograms {
            put_str(&mut out, name);
            put_u64(&mut out, h.count);
            put_u64(&mut out, h.sum);
            put_u64(&mut out, h.max);
            let nonzero: Vec<(usize, u64)> = h
                .buckets
                .iter()
                .enumerate()
                .filter(|(_, &n)| n != 0)
                .map(|(i, &n)| (i, n))
                .collect();
            put_u32(&mut out, nonzero.len() as u32);
            for (i, n) in nonzero {
                out.push(i as u8);
                put_u64(&mut out, n);
            }
        }
        out
    }

    /// Decode a [`MetricsSnapshot::encode`] payload. Rejects trailing
    /// bytes: a snapshot is a complete message, not a stream prefix.
    pub fn decode(bytes: &[u8]) -> Result<MetricsSnapshot, SnapshotDecodeError> {
        let mut r = Reader::new(bytes);
        if r.take(SNAPSHOT_MAGIC.len(), "magic")? != SNAPSHOT_MAGIC {
            return Err(SnapshotDecodeError::BadMagic);
        }
        let version = r.u8("version")?;
        if version != SNAPSHOT_VERSION {
            return Err(SnapshotDecodeError::UnsupportedVersion(version));
        }
        let mut snapshot = MetricsSnapshot::default();
        for _ in 0..r.count("counter count")? {
            let name = r.string("counter name")?;
            let v = r.u64("counter value")?;
            snapshot.push_counter(&name, v);
        }
        for _ in 0..r.count("gauge count")? {
            let name = r.string("gauge name")?;
            let v = r.u64("gauge value")?;
            snapshot.push_gauge(&name, v);
        }
        for _ in 0..r.count("histogram count")? {
            let name = r.string("histogram name")?;
            let mut h = HistogramSnapshot {
                count: r.u64("histogram count")?,
                sum: r.u64("histogram sum")?,
                max: r.u64("histogram max")?,
                ..HistogramSnapshot::default()
            };
            for _ in 0..r.count("bucket count")? {
                let idx = r.u8("bucket index")? as usize;
                if idx >= HISTOGRAM_BUCKETS {
                    return Err(SnapshotDecodeError::BadBucketIndex(idx as u8));
                }
                h.buckets[idx] = r.u64("bucket value")?;
            }
            snapshot.push_histogram(&name, h);
        }
        if r.remaining() != 0 {
            return Err(SnapshotDecodeError::TrailingBytes {
                remaining: r.remaining(),
            });
        }
        Ok(snapshot)
    }
}

/// The metric name with any `{label="…"}` suffix stripped — what the
/// `# TYPE` exposition line must carry.
fn base_name(name: &str) -> &str {
    name.split('{').next().unwrap_or(name)
}

const SNAPSHOT_MAGIC: &[u8; 4] = b"KOBS";
const SNAPSHOT_VERSION: u8 = 1;

/// Why a [`MetricsSnapshot::decode`] rejected its input. Every payload
/// is static — hostile bytes never allocate an error message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SnapshotDecodeError {
    /// The payload does not start with the `KOBS` magic.
    BadMagic,
    /// The payload's format version is newer than this decoder.
    UnsupportedVersion(u8),
    /// The payload ended mid-field.
    UnexpectedEof {
        /// Which field was being read.
        what: &'static str,
    },
    /// An element count larger than the payload could possibly hold.
    ImplausibleCount {
        /// Which count field was implausible.
        what: &'static str,
    },
    /// A metric name was not valid UTF-8.
    BadUtf8,
    /// A histogram bucket index out of range.
    BadBucketIndex(u8),
    /// Bytes left over after a complete snapshot.
    TrailingBytes {
        /// How many bytes remained.
        remaining: usize,
    },
}

impl fmt::Display for SnapshotDecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotDecodeError::BadMagic => write!(f, "not a KOBS metrics snapshot"),
            SnapshotDecodeError::UnsupportedVersion(v) => {
                write!(f, "unsupported snapshot format version {v}")
            }
            SnapshotDecodeError::UnexpectedEof { what } => {
                write!(f, "snapshot truncated while reading {what}")
            }
            SnapshotDecodeError::ImplausibleCount { what } => {
                write!(f, "snapshot {what} larger than the payload could hold")
            }
            SnapshotDecodeError::BadUtf8 => write!(f, "snapshot metric name is not valid UTF-8"),
            SnapshotDecodeError::BadBucketIndex(i) => {
                write!(f, "snapshot histogram bucket index {i} out of range")
            }
            SnapshotDecodeError::TrailingBytes { remaining } => {
                write!(f, "{remaining} trailing byte(s) after snapshot")
            }
        }
    }
}

impl std::error::Error for SnapshotDecodeError {}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    put_u32(out, s.len() as u32);
    out.extend_from_slice(s.as_bytes());
}

struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(bytes: &'a [u8]) -> Self {
        Reader { bytes, pos: 0 }
    }

    fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    fn take(&mut self, n: usize, what: &'static str) -> Result<&'a [u8], SnapshotDecodeError> {
        if self.remaining() < n {
            return Err(SnapshotDecodeError::UnexpectedEof { what });
        }
        let slice = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    fn u8(&mut self, what: &'static str) -> Result<u8, SnapshotDecodeError> {
        Ok(self.take(1, what)?[0])
    }

    fn u32(&mut self, what: &'static str) -> Result<u32, SnapshotDecodeError> {
        let b = self.take(4, what)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn u64(&mut self, what: &'static str) -> Result<u64, SnapshotDecodeError> {
        let b = self.take(8, what)?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    /// An element count, sanity-checked against the bytes actually left:
    /// every counted element takes at least one byte, so a hostile count
    /// can never drive a huge loop or allocation.
    fn count(&mut self, what: &'static str) -> Result<u32, SnapshotDecodeError> {
        let n = self.u32(what)?;
        if n as usize > self.remaining() {
            return Err(SnapshotDecodeError::ImplausibleCount { what });
        }
        Ok(n)
    }

    fn string(&mut self, what: &'static str) -> Result<String, SnapshotDecodeError> {
        let len = self.u32(what)? as usize;
        if len > self.remaining() {
            return Err(SnapshotDecodeError::UnexpectedEof { what });
        }
        let bytes = self.take(len, what)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| SnapshotDecodeError::BadUtf8)
    }
}
