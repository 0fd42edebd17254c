//! Invariant validation for a [`Store`].
//!
//! The checks encode the structural constraints §4.1 of the paper states or
//! implies:
//!
//! * at most one `TotalTiming` per (region, run) — `Summary` uses `UNIQUE`;
//! * at most one `TypedTiming` per (region, run, type) — "for each region
//!   there is at most one object per timing type and per test run";
//! * at most one `CallTiming` per (call, run);
//! * inclusive ≥ exclusive ≥ 0 for every total timing;
//! * the sum of the children's inclusive times never exceeds the parent's;
//! * regions form a forest within their function (no parent cycles);
//! * all cross-arena references are in bounds and run/version-consistent.

use crate::ids::*;
use crate::store::Store;
use std::collections::HashSet;
use std::fmt;

/// A single violated invariant.
#[derive(Debug, Clone, PartialEq)]
pub struct Violation {
    /// Which rule was violated.
    pub rule: &'static str,
    /// Human-readable details.
    pub detail: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.rule, self.detail)
    }
}

/// Check all store invariants; returns every violation found.
pub fn validate(store: &Store) -> Vec<Violation> {
    let mut out = Vec::new();
    unique_total_timings(store, &mut out);
    unique_typed_timings(store, &mut out);
    unique_call_timings(store, &mut out);
    timing_sanity(store, &mut out);
    child_inclusion(store, &mut out);
    region_forest(store, &mut out);
    run_consistency(store, &mut out);
    out
}

fn unique_total_timings(store: &Store, out: &mut Vec<Violation>) {
    let mut seen = HashSet::new();
    for t in &store.total_timings {
        if !seen.insert((t.region, t.run)) {
            out.push(Violation {
                rule: "unique-total-timing",
                detail: format!("duplicate TotalTiming for ({}, {})", t.region, t.run),
            });
        }
    }
}

fn unique_typed_timings(store: &Store, out: &mut Vec<Violation>) {
    let mut seen = HashSet::new();
    for t in &store.typed_timings {
        if !seen.insert((t.region, t.run, t.ty)) {
            out.push(Violation {
                rule: "unique-typed-timing",
                detail: format!(
                    "duplicate TypedTiming for ({}, {}, {})",
                    t.region, t.run, t.ty
                ),
            });
        }
    }
}

fn unique_call_timings(store: &Store, out: &mut Vec<Violation>) {
    let mut seen = HashSet::new();
    for ct in &store.call_timings {
        if !seen.insert((ct.call, ct.run)) {
            out.push(Violation {
                rule: "unique-call-timing",
                detail: format!("duplicate CallTiming for ({}, {})", ct.call, ct.run),
            });
        }
    }
}

fn timing_sanity(store: &Store, out: &mut Vec<Violation>) {
    for (i, t) in store.total_timings.iter().enumerate() {
        if t.excl < 0.0 || t.incl < 0.0 || t.ovhd < 0.0 {
            out.push(Violation {
                rule: "non-negative-timing",
                detail: format!("TotalTiming tot{i} has a negative component"),
            });
        }
        // Allow a small relative tolerance for floating-point accumulation.
        if t.excl > t.incl * (1.0 + 1e-9) + 1e-12 {
            out.push(Violation {
                rule: "inclusive-covers-exclusive",
                detail: format!(
                    "TotalTiming tot{i}: excl {} exceeds incl {}",
                    t.excl, t.incl
                ),
            });
        }
    }
    for (i, t) in store.typed_timings.iter().enumerate() {
        if t.time < 0.0 {
            out.push(Violation {
                rule: "non-negative-timing",
                detail: format!("TypedTiming typ{i} is negative"),
            });
        }
    }
    for (i, ct) in store.call_timings.iter().enumerate() {
        if ct.min_count > ct.mean_count + 1e-9
            || ct.mean_count > ct.max_count + 1e-9
            || ct.min_time > ct.mean_time + 1e-9
            || ct.mean_time > ct.max_time + 1e-9
            || ct.stdev_count < 0.0
            || ct.stdev_time < 0.0
        {
            out.push(Violation {
                rule: "call-statistics-order",
                detail: format!("CallTiming ct{i} violates min <= mean <= max or stdev >= 0"),
            });
        }
    }
}

fn child_inclusion(store: &Store, out: &mut Vec<Violation>) {
    for (i, region) in store.regions.iter().enumerate() {
        let rid = RegionId(i as u32);
        for tt_id in &region.tot_times {
            let parent_t = &store.total_timings[tt_id.index()];
            let child_sum: f64 = store
                .children(rid)
                .filter_map(|c| store.total_timing(c, parent_t.run))
                .map(|t| t.incl)
                .sum();
            if child_sum > parent_t.incl * (1.0 + 1e-9) + 1e-9 {
                out.push(Violation {
                    rule: "child-inclusion",
                    detail: format!(
                        "children of {} sum to {child_sum} > parent incl {} in {}",
                        rid, parent_t.incl, parent_t.run
                    ),
                });
            }
        }
    }
}

fn region_forest(store: &Store, out: &mut Vec<Violation>) {
    for (i, region) in store.regions.iter().enumerate() {
        // Walk up; a cycle would revisit i.
        let mut seen = HashSet::new();
        let mut cur = region.parent;
        seen.insert(RegionId(i as u32));
        while let Some(p) = cur {
            if !seen.insert(p) {
                out.push(Violation {
                    rule: "region-forest",
                    detail: format!("parent cycle at reg{i}"),
                });
                break;
            }
            let pr = &store.regions[p.index()];
            if pr.function != region.function {
                out.push(Violation {
                    rule: "region-forest",
                    detail: format!("reg{i} has parent {} in a different function", p),
                });
                break;
            }
            cur = pr.parent;
        }
    }
}

fn run_consistency(store: &Store, out: &mut Vec<Violation>) {
    for (i, t) in store.total_timings.iter().enumerate() {
        let region_version =
            store.functions[store.regions[t.region.index()].function.index()].version;
        let run_version = store.runs[t.run.index()].version;
        if region_version != run_version {
            out.push(Violation {
                rule: "run-version-consistency",
                detail: format!(
                    "TotalTiming tot{i} links region of {} to run of {}",
                    region_version, run_version
                ),
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{DateTime, RegionKind};
    use crate::timing_type::TimingType;

    fn valid_store() -> Store {
        let mut s = Store::new();
        let p = s.add_program("app");
        let v = s.add_version(p, DateTime::from_secs(0), "");
        let r = s.add_run(v, DateTime::from_secs(1), 4, 450);
        let f = s.add_function(v, "main");
        let root = s.add_region(f, None, RegionKind::Subprogram, "main", (1, 50));
        let lp = s.add_region(f, Some(root), RegionKind::Loop, "loop", (5, 20));
        s.add_total_timing(root, r, 2.0, 10.0, 0.1);
        s.add_total_timing(lp, r, 7.0, 8.0, 0.1);
        s.add_typed_timing(lp, r, TimingType::Barrier, 0.5);
        s
    }

    #[test]
    fn valid_store_passes() {
        assert!(validate(&valid_store()).is_empty());
    }

    #[test]
    fn duplicate_total_timing_detected() {
        // Built through the builder so the store's indexes stay
        // consistent with the (deliberately malformed) arenas.
        let mut s = valid_store();
        let dup = s.total_timings[0].clone();
        s.add_total_timing(dup.region, dup.run, dup.excl, dup.incl, dup.ovhd);
        let v = validate(&s);
        assert!(v.iter().any(|x| x.rule == "unique-total-timing"));
    }

    #[test]
    fn duplicate_typed_timing_detected() {
        let mut s = valid_store();
        let dup = s.typed_timings[0].clone();
        s.add_typed_timing(dup.region, dup.run, dup.ty, dup.time);
        let v = validate(&s);
        assert!(v.iter().any(|x| x.rule == "unique-typed-timing"));
    }

    #[test]
    fn exclusive_above_inclusive_detected() {
        let mut s = valid_store();
        s.total_timings[1].excl = 100.0;
        let v = validate(&s);
        assert!(v.iter().any(|x| x.rule == "inclusive-covers-exclusive"));
    }

    #[test]
    fn negative_time_detected() {
        let mut s = valid_store();
        s.typed_timings[0].time = -1.0;
        let v = validate(&s);
        assert!(v.iter().any(|x| x.rule == "non-negative-timing"));
    }

    #[test]
    fn children_exceeding_parent_detected() {
        let mut s = valid_store();
        // Loop (child of root) inclusive > root inclusive.
        s.total_timings[1].incl = 50.0;
        s.total_timings[1].excl = 1.0;
        let v = validate(&s);
        assert!(v.iter().any(|x| x.rule == "child-inclusion"));
    }

    #[test]
    fn parent_cycle_detected() {
        let mut s = valid_store();
        // Make root's parent the loop: cycle of length 2.
        s.regions[0].parent = Some(crate::ids::RegionId(1));
        let v = validate(&s);
        assert!(v.iter().any(|x| x.rule == "region-forest"));
    }

    #[test]
    fn cross_version_timing_detected() {
        let mut s = valid_store();
        let p2 = s.add_program("other");
        let v2 = s.add_version(p2, DateTime::from_secs(0), "");
        let r2 = s.add_run(v2, DateTime::from_secs(0), 2, 450);
        s.total_timings[0].run = r2;
        let v = validate(&s);
        assert!(v.iter().any(|x| x.rule == "run-version-consistency"));
    }

    #[test]
    fn call_statistics_order_detected() {
        let mut s = valid_store();
        let f_main = crate::ids::FunctionId(0);
        let root = crate::ids::RegionId(0);
        let callee = s.add_function(crate::ids::VersionId(0), "barrier");
        let c = s.add_call(f_main, callee, root);
        s.add_call_timing(crate::model::CallTiming {
            call: c,
            run: crate::ids::TestRunId(0),
            min_count: 10.0,
            max_count: 1.0, // wrong order
            mean_count: 5.0,
            stdev_count: 0.0,
            min_count_pe: 0,
            max_count_pe: 0,
            min_time: 0.0,
            max_time: 1.0,
            mean_time: 0.5,
            stdev_time: 0.1,
            min_time_pe: 0,
            max_time_pe: 1,
        });
        let v = validate(&s);
        assert!(v.iter().any(|x| x.rule == "call-statistics-order"));
    }
}
