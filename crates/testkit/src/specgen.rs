//! One generator for the evaluator-level suites — `asl-eval`'s
//! `compiled_equiv`, `kojak-flow`'s `soundness` and `kojak-lint`'s
//! `no_panic`: a random store ([`random_store`]) and random properties on
//! top of the real standard suite ([`generated_suite`]), so what one
//! suite's generator reaches every suite reaches.

use asl_core::ast::PropertyDecl;
use asl_eval::{Value, COSY_DATA_MODEL};
use cosy::suite::SUITE_PROPERTIES;
use perfdata::{CallTiming, DateTime, RegionKind, Store, TimingType, VersionId};

/// A tiny deterministic splitmix64 stream.
struct Rng(u64);

impl Rng {
    /// The next 64 random bits.
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// True `percent` times in a hundred.
    fn chance(&mut self, percent: u64) -> bool {
        self.below(100) < percent
    }

    /// Uniform in `lo..hi`.
    fn f64_in(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64 * (hi - lo)
    }

    /// `0.0` `zero_percent` times in a hundred, else uniform in `lo..hi`.
    fn zero_or(&mut self, zero_percent: u64, lo: f64, hi: f64) -> f64 {
        if self.chance(zero_percent) {
            0.0
        } else {
            self.f64_in(lo, hi)
        }
    }

    /// One of `items`.
    fn pick<T: Copy>(&mut self, items: &[T]) -> T {
        items[self.below(items.len() as u64) as usize]
    }
}

/// The one timing type [`random_store`] never records: a filter or a
/// `Type ∈ {…}` key naming it must select nothing.
const UNRECORDED: TimingType = TimingType::IoRead;

/// A random store: one version, `n_runs` runs with random (possibly tied)
/// PE counts, `n_regions` regions in a random tree, patchy totals with
/// zero durations, duplicate total and typed records, by chance an
/// unmeasured region, typed records of every type but `IoRead`, and
/// a `barrier` call site at `r0` with partial statistics.
pub fn random_store(seed: u64, n_runs: usize, n_regions: usize) -> (Store, VersionId) {
    let mut rng = Rng(seed);
    let mut s = Store::new();
    let p = s.add_program("randprog");
    let v = s.add_version(p, DateTime::from_secs(1), "random source");
    let runs: Vec<_> = (0..n_runs)
        .map(|i| {
            let no_pe = 1 << rng.below(6);
            s.add_run(v, DateTime::from_secs(10 + i as i64), no_pe, 450)
        })
        .collect();
    let f_main = s.add_function(v, "main");
    let f_barrier = s.add_function(v, "barrier");
    let mut regions = Vec::new();
    for i in 0..n_regions {
        let parent = if regions.is_empty() || rng.chance(30) {
            None
        } else {
            Some(rng.pick(&regions))
        };
        let kind = if i == 0 {
            RegionKind::Subprogram
        } else {
            RegionKind::Loop
        };
        let lines = (i as u32, i as u32 + 9);
        regions.push(s.add_region(f_main, parent, kind, format!("r{i}"), lines));
    }
    for &r in &regions {
        // A region without any total: `MinPeSum` is `UNIQUE` of nothing.
        let measured = rng.chance(85);
        for &run in &runs {
            if measured && rng.chance(75) {
                // Zero durations → division-by-zero severity paths.
                let incl = rng.zero_or(10, 0.5, 50.0);
                let excl = rng.f64_in(0.0, incl.max(0.1));
                let ovhd = rng.zero_or(30, 0.0, 2.0);
                s.add_total_timing(r, run, excl, incl, ovhd);
                if rng.chance(4) {
                    // Duplicate record → ambiguous UNIQUE in Summary.
                    s.add_total_timing(r, run, excl, incl + 1.0, ovhd);
                }
            }
            for &ty in TimingType::ALL.iter().filter(|&&ty| ty != UNRECORDED) {
                if rng.chance(25) {
                    let t = rng.zero_or(20, 0.001, 5.0);
                    s.add_typed_timing(r, run, ty, t);
                    if rng.chance(8) {
                        // Duplicate (region, run, type): both records
                        // count, in recording order.
                        s.add_typed_timing(r, run, ty, t + 0.5);
                    }
                }
            }
        }
    }
    let call = s.add_call(f_main, f_barrier, regions[0]);
    for &run in &runs {
        if rng.chance(60) {
            // Sometimes fine-grained enough for `FrequentFineGrainCalls`.
            let mean_time = if rng.chance(20) {
                rng.f64_in(0.0, 0.001)
            } else {
                rng.f64_in(0.0, 3.0)
            };
            let timing = CallTiming {
                call,
                run,
                min_count: 1.0,
                max_count: 4.0,
                mean_count: rng.f64_in(1.0, 500.0),
                stdev_count: rng.f64_in(0.0, 2.0),
                min_count_pe: 0,
                max_count_pe: 1,
                min_time: mean_time * 0.5,
                max_time: mean_time * 1.5,
                mean_time,
                stdev_time: rng.f64_in(0.0, 1.0),
                min_time_pe: 0,
                max_time_pe: 1,
            };
            if rng.chance(5) {
                // Duplicate statistics → ambiguous UNIQUE of `Call.Sums`.
                s.add_call_timing(timing.clone());
            }
            s.add_call_timing(timing);
        }
    }
    (s, v)
}

/// A suite to check: the data model, the real standard properties, and
/// the generated properties of `seed`.
pub fn generated_suite(seed: u64) -> String {
    format!(
        "{COSY_DATA_MODEL}\n{SUITE_PROPERTIES}\n{}",
        generated_properties(seed)
    )
}

/// `Gen0`, whose conditions and division flow proves something about
/// (`(never)` unsatisfiable, `(always)` tautological, `X / N` guarded by
/// `(pos) N > k`), four random properties and the fixed ones. Well-typed
/// by construction; the error paths are reached by chance.
fn generated_properties(seed: u64) -> String {
    let mut rng = Rng(seed ^ 0xabcdef);
    let mut out = String::new();
    for i in 0..5 {
        let value = typed_value(&mut rng);
        let body = if i == 0 {
            let k = rng.below(3);
            let conf = rng.f64_in(0.1, 1.0);
            format!(
                "CONDITION: (pos) N > {k} OR (always) COUNT(r.TypTimes) >= 0\n\
                            OR (never) COUNT(r.TypTimes) < 0;\n\
                 CONFIDENCE: MAX((pos) -> 0.9, (always) -> {conf:.2});\n\
                 SEVERITY: MAX((pos) -> X / N, (never) -> 7.0);"
            )
        } else {
            random_body(&mut rng)
        };
        out.push_str(&format!(
            "Property Gen{i}(Region r, TestRun t, Region Basis) {{\n\
                 LET float X = {value};\n\
                     int N = COUNT(r.TotTimes)\n\
                 IN {body}\n\
             }}\n"
        ));
    }
    out.push_str(&shared_properties(&mut rng));
    out.push_str(&lane_properties(&mut rng));
    out + FIXED_PROPERTIES
}

/// Properties whose columns mix what the compiled evaluator keeps apart:
/// integer and float lanes of one value (an empty `SUM` is the integer 0,
/// compared with `0` and with `1.0`; a product that overflows on some
/// lanes, a negation of the least integer, an empty sum that wraps past
/// the greatest integer where a float sum does not; `%` and `/` by zero
/// on some), severities that are NaN or ±inf on some lanes, object lanes
/// beside `Null` ones (the parent of a root) compared with objects, a
/// lane failing in a `LET` while the others go on through an `AND` and a
/// `FORALL`, and a run cell an empty sum fills with an integer in one
/// property that a float comparison reads in another.
fn lane_properties(rng: &mut Rng) -> String {
    let k = 1 + rng.below(3);
    let ty = timing_type(rng);
    let sum = format!("SUM(tt.Time WHERE tt IN r.TypTimes AND tt.Run == t AND tt.Type == {ty})");
    let huge = "S * 1.0e308 * 1.0e308";
    format!(
        "Property LaneMix(Region r, TestRun t, Region Basis) {{\n\
             LET float S = {sum};\n\
                 int C = COUNT(r.TypTimes)\n\
             IN CONDITION: (zero) S == 0 OR (one) S + C == 1.0 OR (pos) S > 0.0\n\
                 OR (wrap) C * 4611686018427387904 < 0\n\
                 OR (neg) 0 < -(0 - 9223372036854775807 - 1)\n\
                 OR (big) S + 9223372036854775807 + 1 < 0;\n\
             CONFIDENCE: MAX((zero) -> 1, (one) -> 0.5, (pos) -> {huge});\n\
             SEVERITY: MAX((zero) -> S / (C % 2), (pos) -> {huge} - {huge},\n\
                 (wrap) -> 0.0 - {huge});\n\
         }}\n\
         Property LaneNan(Region r, TestRun t, Region Basis) {{\n\
             LET float S = SUM(tt.Time WHERE tt IN r.TypTimes AND tt.Run == t)\n\
             IN CONDITION: S == 0.0 OR {huge} - {huge} > 1.0;\n\
             CONFIDENCE: 1;\n\
             SEVERITY: {huge};\n\
         }}\n\
         Property LaneMod(Region r, TestRun t, Region Basis) {{\n\
             LET int C = COUNT(r.TypTimes)\n\
             IN CONDITION: C % (C % 2) >= 0 AND C * 4611686018427387904 != 1;\n\
             CONFIDENCE: 1;\n\
             SEVERITY: C * 4611686018427387904 / 1.0e18;\n\
         }}\n\
         Property LaneNull(Region r, TestRun t, Region Basis) {{\n\
             LET Region P = r.ParentRegion\n\
             IN CONDITION: (root) P == Basis OR (self) P != r OR (named) P.Name == r.Name;\n\
             CONFIDENCE: 1;\n\
             SEVERITY: MAX((root) -> 1.0, (self) -> 2, (named) -> 3.0);\n\
         }}\n\
         Property LaneLet(Region r, TestRun t, Region Basis) {{\n\
             LET float U = Summary(r, t).Incl\n\
             IN CONDITION: U >= 0.0 AND FORALL(s IN r.TotTimes WITH s.Incl >= U - {k}.0);\n\
             CONFIDENCE: 1;\n\
             SEVERITY: U / Duration(Basis, t);\n\
         }}\n\
         Property LaneCellA(Region r, TestRun t, Region Basis) {{\n\
             LET float A = {sum}\n\
             IN CONDITION: A == 0; CONFIDENCE: 1; SEVERITY: 1;\n\
         }}\n\
         Property LaneCellB(Region r, TestRun t, Region Basis) {{\n\
             CONDITION: {sum} >= 0.0 AND {sum} < 1.5; CONFIDENCE: 1;\n\
             SEVERITY: {sum} / Duration(Basis, t);\n\
         }}\n"
    )
}

/// Properties that share subtrees, between them and within one, so the
/// compiled evaluator keeps them once per subject and run: a helper call
/// (`Duration(r, t)`, failing where `r` has no total of `t` or two; and
/// `Duration(Basis, M.Run)`, which reads the subject through a LET only,
/// inside an `EXISTS` and out of it), a
/// `UNIQUE` over an indexed filter with a second key (empty where `r` has
/// no typed record of the type in `t`, ambiguous where it has two), and
/// sums over one filter selecting disjoint type families — a group the
/// evaluator fills in one visit — plus one whose family overlaps another,
/// over stores with duplicate typed records.
fn shared_properties(rng: &mut Rng) -> String {
    let k = rng.below(3) as f64 * 0.5;
    let ty = timing_type(rng);
    let unique = format!("UNIQUE({{tt IN r.TypTimes WITH tt.Run == t AND tt.Type == {ty}}}).Time");
    let mut out = format!(
        "Property ShareCall(Region r, TestRun t, Region Basis) {{\n\
             LET float D = Duration(r, t); float E = Duration(r, t) - {k:.1}\n\
             IN CONDITION: (d) D > {k:.1} OR (e) E > 0.0;\n\
             CONFIDENCE: MAX((d) -> 1, (e) -> 0.5);\n\
             SEVERITY: (D + Duration(r, t)) / Duration(Basis, t);\n\
         }}\n\
         Property ShareInside(Region r, TestRun t, Region Basis) {{\n\
             LET TotalTiming M = UNIQUE({{s IN r.TotTimes WITH s.Run.NoPe ==\n\
                 MIN(q.Run.NoPe WHERE q IN r.TotTimes)}})\n\
             IN CONDITION: EXISTS(tt IN r.TypTimes WITH tt.Time > {k:.1} * Duration(Basis, M.Run));\n\
             CONFIDENCE: 1;\n\
             SEVERITY: Duration(Basis, M.Run) / Duration(Basis, t);\n\
         }}\n\
         Property ShareUnique(Region r, TestRun t, Region Basis) {{\n\
             LET float U = {unique}\n\
             IN CONDITION: U > {unique} - 1.0 AND Duration(r, t) > {k:.1};\n\
             CONFIDENCE: 1;\n\
             SEVERITY: U / Duration(Basis, t);\n\
         }}\n"
    );
    // Deal the recorded types into three disjoint families, then draw a
    // fourth that overlaps the first.
    let mut families = vec![Vec::new(); 3];
    for ty in TimingType::ALL.iter().filter(|&&ty| ty != UNRECORDED) {
        if rng.chance(60) {
            families[rng.below(3) as usize].push(ty.name());
        }
    }
    let overlap = [
        families[0].first().copied().unwrap_or("Barrier"),
        timing_type(rng),
    ];
    families.retain(|family| !family.is_empty());
    families.push(overlap.to_vec());
    for (i, family) in families.iter().enumerate() {
        let test = family.iter().map(|ty| format!("tt.Type == {ty}"));
        let test = test.collect::<Vec<_>>().join(" OR ");
        let sum = format!("SUM(tt.Time WHERE tt IN r.TypTimes AND tt.Run == t AND ({test}))");
        out.push_str(&format!(
            "Property ShareSum{i}(Region r, TestRun t, Region Basis) {{\n\
                 LET float S = {sum}\n\
                 IN CONDITION: S > {k:.1} OR Duration(r, t) > 1.0; CONFIDENCE: 1;\n\
                 SEVERITY: S / Duration(Basis, t);\n\
             }}\n"
        ));
    }
    out
}

/// A random comparison of `X`, either one plain condition or three
/// guarded ones, over a random denominator.
fn random_body(rng: &mut Rng) -> String {
    let cmp = rng.pick(&[">", "<", ">=", "<=", "==", "!="]);
    let denom = rng.pick(&["Duration(Basis, t)", "N", "(X - X)", "COUNT(r.TotTimes)"]);
    let scale = 1 + rng.below(3);
    if rng.chance(50) {
        let threshold = rng.below(4) as f64 * 0.5;
        format!("CONDITION: X {cmp} {threshold}; CONFIDENCE: 0.9; SEVERITY: X * {scale} / {denom};")
    } else {
        let t1 = rng.f64_in(0.0, 2.0);
        let t2 = rng.f64_in(0.0, 4.0);
        let conf = rng.f64_in(0.0, 1.0);
        format!(
            "CONDITION: (a) X {cmp} {t1:.2} OR (b) X > {t2:.2} OR (c) N > 0;\n\
             CONFIDENCE: MAX((a) -> 0.9, (b) -> {conf:.2});\n\
             SEVERITY: MAX((a) -> X * {scale} / {denom}, (c) -> X / N);"
        )
    }
}

/// A value over the typed timings `tt` of `r` selected by
/// [`typed_filter`]: the `COUNT` of a comprehension, an aggregate over a
/// comprehension, or an aggregate with the filter in its `WHERE`.
fn typed_value(rng: &mut Rng) -> String {
    let agg = rng.pick(&["SUM", "MIN", "MAX", "AVG", "COUNT"]);
    let filter = typed_filter(rng);
    let selected = format!("tt IN r.TypTimes WITH {filter}");
    match rng.below(4) {
        0 => format!("COUNT({{{selected}}})"),
        1 => format!("{agg}(x.Time WHERE x IN {{{selected}}})"),
        _ => format!("{agg}(tt.Time WHERE tt IN r.TypTimes AND {filter})"),
    }
}

/// The run key `tt.Run == t` and a test on the type or the time, in
/// either order or one without the other.
fn typed_filter(rng: &mut Rng) -> String {
    let first = timing_type(rng);
    let test = match rng.below(7) {
        0 => return "tt.Run == t".to_string(),
        1 => format!("tt.Type == {first}"),
        2 => format!("tt.Type != {first}"),
        3 => format!("(tt.Type == {first} OR tt.Time > 1.5)"),
        4 => format!("tt.Time > {:.2}", rng.f64_in(0.0, 2.0)),
        shape => {
            // An `OR` chain of 2–4 types, repeats allowed.
            let mut chain = format!("tt.Type == {first}");
            for _ in 0..1 + rng.below(3) {
                let next = timing_type(rng);
                chain = if shape == 5 {
                    format!("{chain} OR tt.Type == {next}")
                } else {
                    // Operands swapped, nested to the right.
                    format!("{next} == tt.Type OR ({chain})")
                };
            }
            format!("({chain})")
        }
    };
    match rng.below(5) {
        0 => test,
        1 => format!("{test} AND tt.Run == t"),
        _ => format!("tt.Run == t AND {test}"),
    }
}

/// Any timing type, [`UNRECORDED`] one time in five.
fn timing_type(rng: &mut Rng) -> &'static str {
    if rng.chance(20) {
        UNRECORDED.name()
    } else {
        rng.pick(TimingType::ALL).name()
    }
}

/// Shapes the random grammar does not reach: quantifiers, guarded arms,
/// `%`, n-ary `MIN`/`MAX` and the recursion limit.
const FIXED_PROPERTIES: &str = r#"
Property QuantCheck(Region r, TestRun t, Region Basis) {
    CONDITION: EXISTS(tt IN r.TypTimes WITH tt.Run == t AND tt.Time > 0.001)
           AND FORALL(s IN r.TotTimes WITH s.Incl >= 0.0);
    CONFIDENCE: 0.9;
    SEVERITY: AVG(s.Excl WHERE s IN r.TotTimes) / Duration(Basis, t);
}

Property ModMinMax(Region r, TestRun t, Region Basis) {
    CONDITION: (even) t.NoPe % 2 == 0 OR (any) COUNT(r.TotTimes) >= 0;
    CONFIDENCE: MAX((even) -> 0.5, (any) -> 0.7);
    SEVERITY: MAX((even) -> MIN(1.0, 2.0, Duration(Basis, t)), (any) -> 0.1);
}

float Rec(TestRun t) = Rec(t);
Property RecCheck(Region r, TestRun t, Region Basis) {
    CONDITION: Rec(t) > 0.0;
    CONFIDENCE: 1;
    SEVERITY: 0;
}
"#;

/// The subjects `property` is instantiated over in `store`: every region,
/// or every call site for a `FunctionCall` property.
pub fn subjects(store: &Store, property: &PropertyDecl) -> Vec<Value> {
    if property.params[0].ty.to_string() == "Region" {
        (0..store.regions.len() as u32)
            .map(|r| Value::obj("Region", r))
            .collect()
    } else {
        (0..store.calls.len() as u32)
            .map(|c| Value::obj("FunctionCall", c))
            .collect()
    }
}
