//! The report's ranking, held to the comparator it replaced.
//!
//! `Analyzer::assemble_report` sorts held entries by one packed integer:
//! the severity's bits, the property's rank in name order and the
//! context's rank in `(label, region, call)` order. The oracle here is the
//! comparator the reports were ranked with before: severity descending in
//! `f64`'s total order, then property name, label, region id and call id,
//! over labels this test builds from the store itself. Over random held
//! sets of a version built to make every tier of that order matter —
//! severities forced equal or one ulp apart, two regions of one label in
//! different functions, a region named like a call site's label — both
//! rankings must agree entry for entry, and so must the incremental path:
//! two disjoint ranked halves merged (`Analyzer::merge_ranked`).

use cosy::{Analyzer, HeldEntry, ProblemThreshold};
use perfdata::{DateTime, RegionKind, Store, TestRunId, VersionId};
use proptest::prelude::*;
use std::cmp::Ordering;

/// One version whose contexts tie in every way the order distinguishes:
/// `main` and `f` each hold a region labelled `dup`, `main` holds a
/// region named `call f at r` — the label of the call of `f` at `r` — and
/// `barrier` is called at `r` too.
fn tied_version() -> (Store, VersionId, TestRunId) {
    let mut store = Store::new();
    let program = store.add_program("ranking");
    let version = store.add_version(program, DateTime::from_secs(0), "");
    let run = store.add_run(version, DateTime::from_secs(1), 4, 450);
    let main = store.add_function(version, "main");
    let root = store.add_region(main, None, RegionKind::Subprogram, "main", (1, 90));
    let r = store.add_region(main, Some(root), RegionKind::Loop, "r", (10, 19));
    store.add_region(main, Some(root), RegionKind::Loop, "dup", (20, 29));
    store.add_region(
        main,
        Some(root),
        RegionKind::CallSite,
        "call f at r",
        (30, 39),
    );
    let f = store.add_function(version, "f");
    let f_root = store.add_region(f, None, RegionKind::Subprogram, "f", (100, 190));
    store.add_region(f, Some(f_root), RegionKind::Loop, "dup", (110, 119));
    let barrier = store.add_function(version, "barrier");
    store.add_call(main, f, r);
    store.add_call(main, barrier, r);
    store.add_call(f, barrier, f_root);
    (store, version, run)
}

/// What the old comparator ranked by, read off the store.
#[derive(Debug, Clone, PartialEq)]
struct Ranked {
    property: String,
    label: String,
    region: Option<u32>,
    call: Option<u32>,
    severity: u64,
}

/// `held` ranked by the comparator the packed key replaced.
fn oracle(store: &Store, analyzer: &Analyzer<'_>, held: &[HeldEntry]) -> Vec<Ranked> {
    let describe = |h: &HeldEntry| {
        let family = &analyzer.families()[h.property as usize];
        let region = family.class() == "Region";
        let label = match region {
            true => store.regions[h.subject as usize].name.clone(),
            false => {
                let call = &store.calls[h.subject as usize];
                let callee = &store.functions[call.callee.index()].name;
                let site = &store.regions[call.calling_reg.index()].name;
                format!("call {callee} at {site}")
            }
        };
        Ranked {
            property: family.property.to_string(),
            label,
            region: region.then_some(h.subject),
            call: (!region).then_some(h.subject),
            severity: h.severity.to_bits(),
        }
    };
    let descending = |x: u64| {
        let bits = x as i64;
        !(bits ^ (((bits >> 63) as u64) >> 1) as i64)
    };
    let mut ranked: Vec<(usize, Ranked)> = held.iter().map(describe).enumerate().collect();
    ranked.sort_by(|(a, x), (b, y)| -> Ordering {
        descending(x.severity)
            .cmp(&descending(y.severity))
            .then_with(|| x.property.cmp(&y.property))
            .then_with(|| x.label.cmp(&y.label))
            .then_with(|| x.region.cmp(&y.region))
            .then_with(|| x.call.cmp(&y.call))
            .then(a.cmp(b))
    });
    ranked.into_iter().map(|(_, r)| r).collect()
}

/// Severities a held set draws from: equal ones, neighbours one ulp apart
/// on either side, and the extremes of the positive range.
fn severities() -> [f64; 8] {
    let tie = 0.125f64;
    [
        tie,
        tie.next_up(),
        tie.next_down(),
        0.5,
        0.5f64.next_up(),
        f64::MIN_POSITIVE,
        f64::MAX,
        3.0,
    ]
}

proptest! {
    #![proptest_config(testkit::cases(64))]

    #[test]
    fn the_packed_key_ranks_as_the_comparator_did(
        picks in prop::collection::vec((0usize..10_000, 0usize..8, 0usize..4), 0..80),
        all_tied in any::<bool>(),
        split in 0usize..10_000,
    ) {
        let (store, version, run) = tied_version();
        let analyzer = Analyzer::new(&store, version).unwrap();
        let pairs: Vec<(u16, u32)> = (0u16..)
            .zip(analyzer.families())
            .flat_map(|(p, family)| family.subjects.iter().map(move |&s| (p, s)))
            .collect();
        // Each `(property, context)` pair holds at most once.
        let mut held: Vec<HeldEntry> = Vec::new();
        for (pair, severity, confidence) in picks {
            let (property, subject) = pairs[pair % pairs.len()];
            if held.iter().any(|h| (h.property, h.subject) == (property, subject)) {
                continue;
            }
            held.push(HeldEntry {
                property,
                subject,
                severity: severities()[if all_tied { 0 } else { severity }],
                confidence: [0.0, 0.25, 0.5, 1.0][confidence],
            });
        }

        let expected = oracle(&store, &analyzer, &held);
        let report = analyzer.assemble_report(run, held.clone(), ProblemThreshold::default(), 0);
        let got: Vec<Ranked> = (report.entries.iter())
            .map(|e| Ranked {
                property: e.property.to_string(),
                label: e.context.label.to_string(),
                region: e.context.region,
                call: e.context.call,
                severity: e.severity.to_bits(),
            })
            .collect();
        prop_assert_eq!(&got, &expected);
        let ranks: Vec<usize> = report.entries.iter().map(|e| e.rank).collect();
        prop_assert_eq!(ranks, (1..=held.len()).collect::<Vec<_>>());

        // Kept and fresh halves, each ranked, merge into the same order.
        let at = split % (held.len() + 1);
        let (mut kept, mut fresh) = (held[..at].to_vec(), held[at..].to_vec());
        analyzer.rank(&mut kept);
        analyzer.rank(&mut fresh);
        let merged = analyzer.merge_ranked(kept, fresh);
        let mut whole = held.clone();
        analyzer.rank(&mut whole);
        prop_assert_eq!(merged, whole);
    }
}
