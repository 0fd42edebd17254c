//! FNV-1a fingerprints: of generated inputs (the *canary* that catches a
//! drifted workload) and of analysis reports (the correctness gate).

use kojak::cosy::AnalysisReport;
use kojak::online::{RunKey, TraceEvent};
use std::collections::{BTreeMap, HashMap};

/// 64-bit FNV-1a.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(pub u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    pub fn bytes(&mut self, bytes: &[u8]) {
        for b in bytes {
            self.0 = (self.0 ^ u64::from(*b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    /// Length-prefixed, so `("ab","c")` and `("a","bc")` differ.
    pub fn str(&mut self, s: &str) {
        self.u64(s.len() as u64);
        self.bytes(s.as_bytes());
    }

    pub fn of(bytes: &[u8]) -> u64 {
        let mut f = Fnv::default();
        f.bytes(bytes);
        f.0
    }
}

/// Canary over an event stream: FNV-1a of the wire encoding, in order.
#[derive(Default)]
pub struct StreamCanary {
    fnv: Fnv,
    scratch: Vec<u8>,
    pub events: u64,
}

impl StreamCanary {
    pub fn push(&mut self, event: &TraceEvent) {
        self.scratch.clear();
        event.encode_wire(&mut self.scratch);
        self.fnv.bytes(&self.scratch);
        self.events += 1;
    }

    pub fn value(&self) -> u64 {
        self.fnv.0
    }
}

/// The id-free projection of one run's report. Arena ids (`region`,
/// `call`, `run` of a context) are left out: every engine shape
/// allocates its own, and sharded engines allocate them per shard.
/// Everything an analyst reads is in: the header, and per entry the
/// rank, property, context label, severity, confidence and problem flag.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunPrint {
    pub fp: u64,
    pub entries: u64,
}

impl RunPrint {
    pub fn of(report: &AnalysisReport) -> RunPrint {
        let mut f = Fnv::default();
        f.str(&report.program);
        f.u64(u64::from(report.no_pe));
        f.u64(u64::from(report.reference_pe));
        f.u64(report.basis_duration.to_bits());
        f.u64(report.total_cost.to_bits());
        f.u64(report.threshold.0.to_bits());
        f.u64(report.skipped as u64);
        for e in &report.entries {
            f.u64(e.rank as u64);
            f.str(&e.property);
            f.str(&e.context.label);
            f.u64(e.severity.to_bits());
            f.u64(e.confidence.to_bits());
            f.u64(u64::from(e.is_problem));
        }
        RunPrint {
            fp: f.0,
            entries: report.entries.len() as u64,
        }
    }
}

/// Report fingerprints keyed by producer run key, in key order.
pub type Prints = BTreeMap<u64, RunPrint>;

pub fn prints_of(reports: &HashMap<RunKey, AnalysisReport>) -> Prints {
    reports
        .iter()
        .map(|(key, report)| (key.0, RunPrint::of(report)))
        .collect()
}

/// Runs whose fingerprint differs from (or is missing on either side of)
/// the reference, and the first such run key.
pub fn diff(expected: &Prints, got: &Prints) -> (u64, Option<u64>) {
    let mut differing = 0;
    let mut first = None;
    let keys: std::collections::BTreeSet<u64> =
        expected.keys().chain(got.keys()).copied().collect();
    for key in keys {
        if expected.get(&key) != got.get(&key) {
            differing += 1;
            first.get_or_insert(key);
        }
    }
    (differing, first)
}
