//! The COSY data model (§4.1 of the paper) as ASL source, plus the
//! [`ObjectModel`] binding onto a [`perfdata::Store`].

use crate::error::{EvalError, EvalErrorKind, EvalResult};
use crate::interp::{ObjectModel, SetFilter};
use crate::value::{ObjRef, Value};
use asl_core::intern::Symbol;
use perfdata::{CallId, RegionId, Store, TestRunId, TimingType};
use std::sync::OnceLock;

/// Always `(0, 0)`: the per-binding `Run ==` filter memo this counted is
/// gone (set loads are lent by the store, see [`CosyData`]). The benchmark
/// package under `benchmark/` — which a change to this crate may not edit
/// — still reads the pair; nothing else does.
pub fn filter_memo_counters() -> (u64, u64) {
    (0, 0)
}

/// Pre-interned symbols of the COSY data model. Hot paths construct object
/// references and dispatch attribute lookups with integer compares instead
/// of re-hashing class names on every access.
pub struct CosySyms {
    /// `Program`.
    pub program: Symbol,
    /// `ProgVersion`.
    pub prog_version: Symbol,
    /// `SourceCode`.
    pub source_code: Symbol,
    /// `TestRun`.
    pub test_run: Symbol,
    /// `Function`.
    pub function: Symbol,
    /// `Region`.
    pub region: Symbol,
    /// `TotalTiming`.
    pub total_timing: Symbol,
    /// `TypedTiming`.
    pub typed_timing: Symbol,
    /// `FunctionCall`.
    pub function_call: Symbol,
    /// `CallTiming`.
    pub call_timing: Symbol,
    /// The `TimingType` enum name.
    pub timing_type: Symbol,
    /// `TimingType` variant symbols, indexed by `TimingType as usize`
    /// (declaration order, matching [`TimingType::ALL`]).
    pub timing_variants: Vec<Symbol>,
    /// The inverse of `timing_variants`: `TimingType as u8` at
    /// `symbol.id() - variant_base`, [`NOT_A_VARIANT`] between them.
    variant_index: Box<[u8]>,
    /// The smallest id among `timing_variants`.
    variant_base: u32,
}

/// A [`CosySyms::variant_index`] entry that names no `TimingType`.
const NOT_A_VARIANT: u8 = u8::MAX;

impl CosySyms {
    /// The `TimingType` whose variant name `variant` is, as its index in
    /// [`TimingType::ALL`] — one table read, no scan.
    fn timing_type_index(&self, variant: Symbol) -> Option<usize> {
        let at = variant.id().checked_sub(self.variant_base)?;
        let ty = *self.variant_index.get(at as usize)?;
        (ty != NOT_A_VARIANT).then_some(ty as usize)
    }
}

/// The process-wide [`CosySyms`] table.
#[inline]
pub fn syms() -> &'static CosySyms {
    static SYMS: OnceLock<CosySyms> = OnceLock::new();
    SYMS.get_or_init(|| {
        let timing_variants: Vec<Symbol> = TimingType::ALL
            .iter()
            .map(|t| Symbol::intern(t.name()))
            .collect();
        let ids = timing_variants.iter().map(|s| s.id());
        let (lo, hi) = (ids.clone().min().unwrap_or(0), ids.max().unwrap_or(0));
        let mut variant_index = vec![NOT_A_VARIANT; (hi - lo + 1) as usize];
        for (ty, s) in timing_variants.iter().enumerate() {
            variant_index[(s.id() - lo) as usize] = ty as u8;
        }
        CosySyms {
            program: Symbol::intern("Program"),
            prog_version: Symbol::intern("ProgVersion"),
            source_code: Symbol::intern("SourceCode"),
            test_run: Symbol::intern("TestRun"),
            function: Symbol::intern("Function"),
            region: Symbol::intern("Region"),
            total_timing: Symbol::intern("TotalTiming"),
            typed_timing: Symbol::intern("TypedTiming"),
            function_call: Symbol::intern("FunctionCall"),
            call_timing: Symbol::intern("CallTiming"),
            timing_type: Symbol::intern("TimingType"),
            timing_variants,
            variant_index: variant_index.into(),
            variant_base: lo,
        }
    })
}

/// The ASL data-model section used by COSY — the nine classes printed in
/// §4.1 of the paper plus the `TimingType` enumeration (25 variants, see
/// [`perfdata::TimingType`]) and the two shared helper functions `Summary`
/// and `Duration` from §4.2.
///
/// Deviations from the paper's listing, all additive:
/// * `SourceCode` is declared (the paper references it without declaring);
/// * `Region` carries `Name` (used for reports);
/// * `Function` carries `Name` as printed in the paper;
/// * `CallTiming` spells out the statistics attributes the paper describes
///   in prose ("the minimum, maximum, mean value, and standard deviation
///   over a) the number of calls and b) the time spent in the function.
///   For the four extremal values the processor … is memorized").
pub const COSY_DATA_MODEL: &str = r#"
enum TimingType {
    Barrier, Lock, Unlock,
    PtpSend, PtpRecv, PtpWait,
    Broadcast, Reduce, AllReduce, Gather, Scatter, AllToAll,
    ShmemPut, ShmemGet, ShmemWait,
    IoOpen, IoClose, IoRead, IoWrite, IoSeek,
    BufferPack, BufferUnpack,
    Startup, Shutdown, Instrumentation
}

class Program {
    String Name;
    setof ProgVersion Versions;
}

class ProgVersion {
    DateTime Compilation;
    setof Function Functions;
    setof TestRun Runs;
    SourceCode Code;
}

class SourceCode {
    String Text;
}

class TestRun {
    DateTime Start;
    int NoPe;
    int Clockspeed;
}

class Function {
    String Name;
    setof FunctionCall Calls;
    setof Region Regions;
}

class Region {
    Region ParentRegion;
    String Name;
    setof TotalTiming TotTimes;
    setof TypedTiming TypTimes;
}

class TotalTiming {
    TestRun Run;
    float Excl;
    float Incl;
    float Ovhd;
}

class TypedTiming {
    TestRun Run;
    TimingType Type;
    float Time;
}

class FunctionCall {
    Function Caller;
    Region CallingReg;
    setof CallTiming Sums;
}

class CallTiming {
    TestRun Run;
    float MinCount;
    float MaxCount;
    float MeanCount;
    float StdevCount;
    int MinCountPe;
    int MaxCountPe;
    float MinTime;
    float MaxTime;
    float MeanTime;
    float StdevTime;
    int MinTimePe;
    int MaxTimePe;
}

TotalTiming Summary(Region r, TestRun t) = UNIQUE({s IN r.TotTimes WITH s.Run==t});
float Duration(Region r, TestRun t) = Summary(r,t).Incl;
"#;

/// [`ObjectModel`] implementation over a [`perfdata::Store`], answering the
/// attribute lookups of [`COSY_DATA_MODEL`]. Set-valued attributes are
/// lent straight from the store's arenas and run rows
/// ([`ObjectModel::visit_set`]); nothing is copied or cached per binding.
pub struct CosyData<'s> {
    store: &'s Store,
}

impl<'s> CosyData<'s> {
    /// Bind a store.
    pub fn new(store: &'s Store) -> Self {
        CosyData { store }
    }

    /// The bound store.
    pub fn store(&self) -> &Store {
        self.store
    }

    fn bad_attr(obj: &ObjRef, attr: &str) -> EvalError {
        EvalError::new(
            EvalErrorKind::Unknown,
            format!(
                "class `{}` has no attribute `{attr}` (object {obj})",
                obj.class
            ),
        )
    }

    fn check_index(obj: &ObjRef, len: usize) -> EvalResult<usize> {
        let i = obj.index as usize;
        if i < len {
            Ok(i)
        } else {
            Err(EvalError::new(
                EvalErrorKind::Other,
                format!("dangling object reference {obj} (arena size {len})"),
            ))
        }
    }
}

/// Does [`CosyData`] serve the filter
/// `elem IN <class>.<set_attr> WITH elem.<elem_attr> == key` from a
/// secondary index? True for the one-key shapes `visit_set` lends:
/// `Region.TotTimes`, `Region.TypTimes` and `FunctionCall.Sums`, keyed on
/// `Run`. Static analysis (kojak-lint) uses this to tell natively indexed
/// filters from extracted-but-still-scanned ones. The table knows one key:
/// that `Region.TypTimes` keyed on `Run` also answers a second key
/// `Type ∈ {…}` ([`SetFilter::among`]) is not in it, so lint still reports
/// that residual as scanned — its committed output is computed from these
/// answers, which only a benchmark re-baseline may change.
pub fn native_index(class: &str, set_attr: &str, elem_attr: &str) -> bool {
    elem_attr == "Run"
        && matches!(
            (class, set_attr),
            ("Region", "TotTimes") | ("Region", "TypTimes") | ("FunctionCall", "Sums")
        )
}

/// Hand the objects behind store ids to `each`, in order.
fn lend<I: Into<u32>>(
    class: Symbol,
    ids: impl IntoIterator<Item = I>,
    each: &mut dyn FnMut(ObjRef) -> EvalResult<bool>,
) -> EvalResult<()> {
    for id in ids {
        let elem = ObjRef {
            class,
            index: id.into(),
        };
        if !each(elem)? {
            break;
        }
    }
    Ok(())
}

/// The `TimingType`s among `values`, one bit each (bit `ty as u32`). Any
/// other value equals no `TypedTiming.Type` and sets none.
fn timing_type_mask(values: &[Value]) -> u32 {
    let sy = syms();
    let mut mask = 0;
    for v in values {
        if let Value::Enum(owner, variant) = v {
            if *owner == sy.timing_type {
                let ty = sy.timing_type_index(*variant);
                mask |= ty.map_or(0, |ty| 1 << ty);
            }
        }
    }
    mask
}

impl CosyData<'_> {
    /// [`ObjectModel::visit_set`] with the "not lent" answer inside the
    /// `Result`, so index checks can use `?`.
    fn lend_set(
        &self,
        obj: &ObjRef,
        set_attr: &str,
        filter: Option<SetFilter<'_>>,
        each: &mut dyn FnMut(ObjRef) -> EvalResult<bool>,
    ) -> EvalResult<Option<()>> {
        let s = self.store;
        let sy = syms();
        let c = obj.class;
        if let Some(filter) = filter {
            // Indexed `Run ==` filters over the three per-run measurement
            // sets, served from the run's row of store slots in O(matches).
            // A key that is not a TestRun compares unequal to every `Run`
            // attribute; the generic scan handles it (yielding nothing).
            let run = match filter.key {
                Value::Obj(o) if filter.elem_attr == "Run" && o.class == sy.test_run => {
                    TestRunId(o.index)
                }
                _ => return Ok(None),
            };
            return match (filter.among, set_attr) {
                (None, "TotTimes") if c == sy.region => {
                    let i = Self::check_index(obj, s.regions.len())?;
                    let ids = s.total_timing_ids(RegionId(i as u32), run);
                    lend(sy.total_timing, ids, each).map(Some)
                }
                (None, "TypTimes") if c == sy.region => {
                    let i = Self::check_index(obj, s.regions.len())?;
                    let ids = s.typed_timing_ids(RegionId(i as u32), run);
                    lend(sy.typed_timing, ids, each).map(Some)
                }
                // The second key `Type ∈ {…}`: the run's typed timings in
                // recording order, minus those of another type. Not
                // `Store::typed_timing`, which answers the first of
                // duplicate records only — the predicate this stands for
                // counts both.
                (Some(("Type", types)), "TypTimes") if c == sy.region => {
                    let i = Self::check_index(obj, s.regions.len())?;
                    let mask = timing_type_mask(types);
                    let ids = s.typed_timing_ids(RegionId(i as u32), run);
                    let kept =
                        ids.filter(|id| mask >> (s.typed_timings[id.index()].ty as u32) & 1 == 1);
                    lend(sy.typed_timing, kept, each).map(Some)
                }
                (None, "Sums") if c == sy.function_call => {
                    let i = Self::check_index(obj, s.calls.len())?;
                    let ids = s.call_timing_ids(CallId(i as u32), run);
                    lend(sy.call_timing, ids, each).map(Some)
                }
                _ => Ok(None),
            };
        }
        let lent = if c == sy.region {
            let r = &s.regions[Self::check_index(obj, s.regions.len())?];
            match set_attr {
                "TotTimes" => lend(sy.total_timing, r.tot_times.iter().copied(), each),
                "TypTimes" => lend(sy.typed_timing, r.typ_times.iter().copied(), each),
                _ => return Ok(None),
            }
        } else if c == sy.function_call {
            let fc = &s.calls[Self::check_index(obj, s.calls.len())?];
            match set_attr {
                "Sums" => lend(sy.call_timing, fc.sums.iter().copied(), each),
                _ => return Ok(None),
            }
        } else if c == sy.function {
            let f = &s.functions[Self::check_index(obj, s.functions.len())?];
            match set_attr {
                "Calls" => lend(sy.function_call, f.calls.iter().copied(), each),
                "Regions" => lend(sy.region, f.regions.iter().copied(), each),
                _ => return Ok(None),
            }
        } else if c == sy.prog_version {
            let v = &s.versions[Self::check_index(obj, s.versions.len())?];
            match set_attr {
                "Functions" => lend(sy.function, v.functions.iter().copied(), each),
                "Runs" => lend(sy.test_run, v.runs.iter().copied(), each),
                _ => return Ok(None),
            }
        } else if c == sy.program {
            let p = &s.programs[Self::check_index(obj, s.programs.len())?];
            match set_attr {
                "Versions" => lend(sy.prog_version, p.versions.iter().copied(), each),
                _ => return Ok(None),
            }
        } else {
            return Ok(None);
        };
        lent.map(Some)
    }

    /// The fall-through of [`ObjectModel::attr`]: a set-valued attribute
    /// materializes what [`ObjectModel::visit_set`] lends; anything else
    /// is not an attribute of the class.
    fn set_attr(&self, obj: &ObjRef, attr: &str) -> EvalResult<Value> {
        let mut items = Vec::new();
        let lent = self.lend_set(obj, attr, None, &mut |elem| {
            items.push(Value::Obj(elem));
            Ok(true)
        })?;
        match lent {
            Some(()) => Ok(Value::Set(items.into())),
            None => Err(Self::bad_attr(obj, attr)),
        }
    }
}

/// What [`ObjectModel::attr`] answers for attribute `attr` of an element of
/// the indexed set `set_attr` ([`native_index`]'s three), read by arena
/// index; `None` for an attribute the element's class does not have.
fn element_attr(set_attr: &str, attr: &str) -> Option<fn(&Store, usize) -> Value> {
    let read: fn(&Store, usize) -> Value = match (set_attr, attr) {
        ("TotTimes", "Run") => |s, i| Value::obj(syms().test_run, s.total_timings[i].run.0),
        ("TotTimes", "Excl") => |s, i| Value::Float(s.total_timings[i].excl),
        ("TotTimes", "Incl") => |s, i| Value::Float(s.total_timings[i].incl),
        ("TotTimes", "Ovhd") => |s, i| Value::Float(s.total_timings[i].ovhd),
        ("TypTimes", "Run") => |s, i| Value::obj(syms().test_run, s.typed_timings[i].run.0),
        ("TypTimes", "Type") => |s, i| {
            let sy = syms();
            Value::Enum(
                sy.timing_type,
                sy.timing_variants[s.typed_timings[i].ty as usize],
            )
        },
        ("TypTimes", "Time") => |s, i| Value::Float(s.typed_timings[i].time),
        ("Sums", "Run") => |s, i| Value::obj(syms().test_run, s.call_timings[i].run.0),
        ("Sums", "MinCount") => |s, i| Value::Float(s.call_timings[i].min_count),
        ("Sums", "MaxCount") => |s, i| Value::Float(s.call_timings[i].max_count),
        ("Sums", "MeanCount") => |s, i| Value::Float(s.call_timings[i].mean_count),
        ("Sums", "StdevCount") => |s, i| Value::Float(s.call_timings[i].stdev_count),
        ("Sums", "MinCountPe") => |s, i| Value::Int(s.call_timings[i].min_count_pe as i64),
        ("Sums", "MaxCountPe") => |s, i| Value::Int(s.call_timings[i].max_count_pe as i64),
        ("Sums", "MinTime") => |s, i| Value::Float(s.call_timings[i].min_time),
        ("Sums", "MaxTime") => |s, i| Value::Float(s.call_timings[i].max_time),
        ("Sums", "MeanTime") => |s, i| Value::Float(s.call_timings[i].mean_time),
        ("Sums", "StdevTime") => |s, i| Value::Float(s.call_timings[i].stdev_time),
        ("Sums", "MinTimePe") => |s, i| Value::Int(s.call_timings[i].min_time_pe as i64),
        ("Sums", "MaxTimePe") => |s, i| Value::Int(s.call_timings[i].max_time_pe as i64),
        _ => return None,
    };
    Some(read)
}

impl ObjectModel for CosyData<'_> {
    /// Counted off the run's row of store slots, as `visit_set` lends it.
    fn count_set(
        &self,
        obj: &ObjRef,
        set_attr: &str,
        filter: SetFilter<'_>,
    ) -> Option<EvalResult<(usize, Option<ObjRef>)>> {
        let (mut n, mut first) = (0, None);
        let counted = self.lend_set(obj, set_attr, Some(filter), &mut |elem| {
            n += 1;
            first.get_or_insert(elem);
            Ok(true)
        });
        counted.map(|lent| lent.map(|()| (n, first))).transpose()
    }

    /// Read off the run's row of store slots, as `visit_set` lends it, each
    /// attribute resolved once per visit rather than once per element.
    fn visit_attr(
        &self,
        obj: &ObjRef,
        set_attr: &str,
        filter: SetFilter<'_>,
        attr: &str,
        by: Option<&str>,
        each: &mut dyn FnMut(Value, &Value),
    ) -> Option<EvalResult<()>> {
        let value = element_attr(set_attr, attr)?;
        let by = match by {
            Some(by) => Some(element_attr(set_attr, by)?),
            None => None,
        };
        let s = self.store;
        let lent = self.lend_set(obj, set_attr, Some(filter), &mut |elem| {
            let i = elem.index as usize;
            each(value(s, i), &by.map_or(Value::Null, |by| by(s, i)));
            Ok(true)
        });
        lent.transpose()
    }

    fn visit_set(
        &self,
        obj: &ObjRef,
        set_attr: &str,
        filter: Option<SetFilter<'_>>,
        each: &mut dyn FnMut(ObjRef) -> EvalResult<bool>,
    ) -> Option<EvalResult<()>> {
        self.lend_set(obj, set_attr, filter, each).transpose()
    }

    fn extent(&self, class: &str) -> Option<usize> {
        let s = self.store;
        Some(match class {
            "Program" => s.programs.len(),
            "ProgVersion" => s.versions.len(),
            "SourceCode" => s.sources.len(),
            "TestRun" => s.runs.len(),
            "Function" => s.functions.len(),
            "Region" => s.regions.len(),
            "TotalTiming" => s.total_timings.len(),
            "TypedTiming" => s.typed_timings.len(),
            "FunctionCall" => s.calls.len(),
            "CallTiming" => s.call_timings.len(),
            _ => return None,
        })
    }

    fn attr(&self, obj: &ObjRef, attr: &str) -> EvalResult<Value> {
        let s = self.store;
        let sy = syms();
        let c = obj.class;
        // Dispatch on interned class symbols (integer compares), ordered by
        // how hot each class is on the property-evaluation path.
        if c == sy.total_timing {
            let i = Self::check_index(obj, s.total_timings.len())?;
            let t = &s.total_timings[i];
            match attr {
                "Run" => Ok(Value::obj(sy.test_run, t.run.0)),
                "Excl" => Ok(Value::Float(t.excl)),
                "Incl" => Ok(Value::Float(t.incl)),
                "Ovhd" => Ok(Value::Float(t.ovhd)),
                _ => Err(Self::bad_attr(obj, attr)),
            }
        } else if c == sy.typed_timing {
            let i = Self::check_index(obj, s.typed_timings.len())?;
            let t = &s.typed_timings[i];
            match attr {
                "Run" => Ok(Value::obj(sy.test_run, t.run.0)),
                "Type" => Ok(Value::Enum(
                    sy.timing_type,
                    sy.timing_variants[t.ty as usize],
                )),
                "Time" => Ok(Value::Float(t.time)),
                _ => Err(Self::bad_attr(obj, attr)),
            }
        } else if c == sy.region {
            let i = Self::check_index(obj, s.regions.len())?;
            let r = &s.regions[i];
            match attr {
                "ParentRegion" => Ok(match r.parent {
                    Some(p) => Value::obj(sy.region, p.0),
                    None => Value::Null,
                }),
                "Name" => Ok(Value::Str(r.name.clone().into())),
                _ => self.set_attr(obj, attr),
            }
        } else if c == sy.test_run {
            let i = Self::check_index(obj, s.runs.len())?;
            let r = &s.runs[i];
            match attr {
                "Start" => Ok(Value::DateTime(r.start.micros())),
                "NoPe" => Ok(Value::Int(r.no_pe as i64)),
                "Clockspeed" => Ok(Value::Int(r.clockspeed as i64)),
                _ => Err(Self::bad_attr(obj, attr)),
            }
        } else if c == sy.call_timing {
            let i = Self::check_index(obj, s.call_timings.len())?;
            let ct = &s.call_timings[i];
            match attr {
                "Run" => Ok(Value::obj(sy.test_run, ct.run.0)),
                "MinCount" => Ok(Value::Float(ct.min_count)),
                "MaxCount" => Ok(Value::Float(ct.max_count)),
                "MeanCount" => Ok(Value::Float(ct.mean_count)),
                "StdevCount" => Ok(Value::Float(ct.stdev_count)),
                "MinCountPe" => Ok(Value::Int(ct.min_count_pe as i64)),
                "MaxCountPe" => Ok(Value::Int(ct.max_count_pe as i64)),
                "MinTime" => Ok(Value::Float(ct.min_time)),
                "MaxTime" => Ok(Value::Float(ct.max_time)),
                "MeanTime" => Ok(Value::Float(ct.mean_time)),
                "StdevTime" => Ok(Value::Float(ct.stdev_time)),
                "MinTimePe" => Ok(Value::Int(ct.min_time_pe as i64)),
                "MaxTimePe" => Ok(Value::Int(ct.max_time_pe as i64)),
                _ => Err(Self::bad_attr(obj, attr)),
            }
        } else if c == sy.function_call {
            let i = Self::check_index(obj, s.calls.len())?;
            let fc = &s.calls[i];
            match attr {
                "Caller" => Ok(Value::obj(sy.function, fc.caller.0)),
                "CallingReg" => Ok(Value::obj(sy.region, fc.calling_reg.0)),
                _ => self.set_attr(obj, attr),
            }
        } else if c == sy.function {
            let i = Self::check_index(obj, s.functions.len())?;
            let f = &s.functions[i];
            match attr {
                "Name" => Ok(Value::Str(f.name.clone().into())),
                _ => self.set_attr(obj, attr),
            }
        } else if c == sy.prog_version {
            let i = Self::check_index(obj, s.versions.len())?;
            let v = &s.versions[i];
            match attr {
                "Compilation" => Ok(Value::DateTime(v.compilation.micros())),
                "Code" => Ok(Value::obj(sy.source_code, v.code.0)),
                _ => self.set_attr(obj, attr),
            }
        } else if c == sy.program {
            let i = Self::check_index(obj, s.programs.len())?;
            let p = &s.programs[i];
            match attr {
                "Name" => Ok(Value::Str(p.name.clone().into())),
                _ => self.set_attr(obj, attr),
            }
        } else if c == sy.source_code {
            let i = Self::check_index(obj, s.sources.len())?;
            match attr {
                "Text" => Ok(Value::Str(s.sources[i].text.clone().into())),
                _ => Err(Self::bad_attr(obj, attr)),
            }
        } else {
            Err(EvalError::new(
                EvalErrorKind::Unknown,
                format!("unknown class `{c}`"),
            ))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interp::Interpreter;
    use apprentice_sim::{archetypes, simulate_program, MachineModel};
    use asl_core::parse_and_check;

    #[test]
    fn data_model_parses_and_checks() {
        let spec = parse_and_check(COSY_DATA_MODEL)
            .unwrap_or_else(|d| panic!("{}", d.render(COSY_DATA_MODEL)));
        assert_eq!(spec.spec.classes.len(), 10);
        assert_eq!(spec.spec.enums.len(), 1);
        assert_eq!(spec.spec.functions.len(), 2);
    }

    #[test]
    fn enum_variants_match_perfdata_timing_types() {
        let spec = parse_and_check(COSY_DATA_MODEL).unwrap();
        let e = spec.spec.enum_decl("TimingType").unwrap();
        let names: Vec<&str> = e.variants.iter().map(|v| v.name.as_str()).collect();
        let expected: Vec<&str> = perfdata::TimingType::ALL.iter().map(|t| t.name()).collect();
        assert_eq!(names, expected);
    }

    fn simulated() -> (Store, perfdata::VersionId) {
        let mut store = Store::new();
        let model = archetypes::particle_mc(11);
        let machine = MachineModel::t3e_900();
        let v = simulate_program(&mut store, &model, &machine, &[1, 4, 16]);
        (store, v)
    }

    #[test]
    fn duration_function_matches_store() {
        let (store, v) = simulated();
        let spec = parse_and_check(COSY_DATA_MODEL).unwrap();
        let data = CosyData::new(&store);
        let interp = Interpreter::new(&spec, &data).unwrap();
        let main = store.main_region(v).unwrap();
        for &run in &store.versions[v.index()].runs {
            let d = interp
                .call_function("Duration", &[Value::region(main), Value::run(run)])
                .unwrap();
            assert_eq!(d.as_f64().unwrap(), store.duration(main, run).unwrap());
        }
    }

    #[test]
    fn navigation_program_to_runs() {
        let (store, _) = simulated();
        let spec = parse_and_check(COSY_DATA_MODEL).unwrap();
        let data = CosyData::new(&store);
        let interp = Interpreter::new(&spec, &data).unwrap();
        // COUNT of runs through two navigation steps.
        let src = format!(
            "{COSY_DATA_MODEL}\nint RunCount(Program p) = \
             SUM(COUNT(v.Runs) WHERE v IN p.Versions);"
        );
        let spec2 = parse_and_check(&src).unwrap();
        let interp2 = Interpreter::new(&spec2, &data).unwrap();
        let v = interp2
            .call_function("RunCount", &[Value::obj("Program", 0)])
            .unwrap();
        assert_eq!(v, Value::Int(3));
        drop(interp);
    }

    #[test]
    fn typed_timing_enum_comparison() {
        let (store, v) = simulated();
        let src = format!(
            "{COSY_DATA_MODEL}\nfloat BarrierTime(Region r, TestRun t) = \
             SUM(tt.Time WHERE tt IN r.TypTimes AND tt.Run==t AND tt.Type == Barrier);"
        );
        let spec = parse_and_check(&src).unwrap();
        let data = CosyData::new(&store);
        let interp = Interpreter::new(&spec, &data).unwrap();
        // Find the particle-mc move loop, which has barrier time at 16 PEs.
        let run16 = store.versions[v.index()].runs[2];
        let mut best = 0.0f64;
        for (i, _) in store.regions.iter().enumerate() {
            let val = interp
                .call_function(
                    "BarrierTime",
                    &[Value::obj("Region", i as u32), Value::run(run16)],
                )
                .unwrap();
            best = best.max(val.as_f64().unwrap());
        }
        assert!(best > 0.0, "some region must show barrier time");
    }

    /// The second key `Type ∈ {…}` lends exactly what testing each typed
    /// timing of the run would keep, in the same order — for every region
    /// and run, for each single type, for sets of types, for values that
    /// are no `TimingType` at all, and with a duplicate `(region, run,
    /// type)` record in the store (both count).
    #[test]
    fn second_key_lends_what_the_type_test_keeps() {
        let (mut store, v) = simulated();
        let runs = store.versions[v.index()].runs.clone();
        let twice = store.typed_timings[0].clone();
        store.add_typed_timing(twice.region, twice.run, twice.ty, twice.time + 1.0);
        let data = CosyData::new(&store);
        let sy = syms();
        let ty = |t: TimingType| Value::Enum(sy.timing_type, sy.timing_variants[t as usize]);
        let mut keys: Vec<Vec<Value>> = TimingType::ALL.iter().map(|&t| vec![ty(t)]).collect();
        keys.push(vec![]);
        keys.push(TimingType::ALL.iter().map(|&t| ty(t)).collect());
        keys.push(vec![ty(TimingType::PtpSend), ty(TimingType::Barrier)]);
        keys.push(vec![ty(twice.ty), ty(twice.ty), Value::Int(3)]);
        keys.push(vec![Value::Enum("Other".into(), sy.timing_variants[0])]);

        let visit = |region: &ObjRef, run: &Value, among| {
            let filter = SetFilter {
                elem_attr: "Run",
                key: run,
                among,
            };
            let mut seen = Vec::new();
            data.visit_set(region, "TypTimes", Some(filter), &mut |elem| {
                seen.push(elem);
                Ok(true)
            })
            .expect("lent")
            .expect("visits");
            seen
        };
        let mut kept_twice = false;
        for r in 0..store.regions.len() as u32 {
            let region = ObjRef {
                class: sy.region,
                index: r,
            };
            for &run in &runs {
                let run = Value::run(run);
                let all = visit(&region, &run, None);
                for key in &keys {
                    let expected: Vec<ObjRef> = all
                        .iter()
                        .filter(|tt| {
                            let is = data.attr(tt, "Type").unwrap();
                            key.iter().any(|v| is.asl_eq(v))
                        })
                        .cloned()
                        .collect();
                    kept_twice |= expected.len() > key.len();
                    assert_eq!(visit(&region, &run, Some(("Type", key))), expected);
                }
            }
        }
        assert!(kept_twice, "the duplicate record was never selected");
        // A second key on anything else is not answered: asked again
        // without it, the store lends the run's records.
        let region = ObjRef {
            class: sy.region,
            index: 0,
        };
        let filter = SetFilter {
            elem_attr: "Run",
            key: &Value::run(runs[0]),
            among: Some(("Time", &[])),
        };
        let lent = data.visit_set(&region, "TypTimes", Some(filter), &mut |_| Ok(true));
        assert!(lent.is_none());
    }

    #[test]
    fn every_variant_symbol_finds_its_timing_type() {
        let sy = syms();
        for (ty, &variant) in sy.timing_variants.iter().enumerate() {
            assert_eq!(sy.timing_type_index(variant), Some(ty));
        }
        for other in [sy.timing_type, sy.region, Symbol::intern("NoSuchType")] {
            assert_eq!(sy.timing_type_index(other), None);
        }
    }

    #[test]
    fn parent_region_of_root_is_null() {
        let (store, v) = simulated();
        let spec = parse_and_check(COSY_DATA_MODEL).unwrap();
        let data = CosyData::new(&store);
        let interp = Interpreter::new(&spec, &data).unwrap();
        let main = store.main_region(v).unwrap();
        let src_expr = asl_core::parser::parse_expr("r.ParentRegion").unwrap();
        let val = interp
            .eval_expr(&src_expr, &[("r", Value::region(main))])
            .unwrap();
        assert_eq!(val, Value::Null);
    }

    #[test]
    fn unknown_attribute_is_error() {
        let (store, _) = simulated();
        let data = CosyData::new(&store);
        let e = data
            .attr(
                &ObjRef {
                    class: "Region".into(),
                    index: 0,
                },
                "Bogus",
            )
            .unwrap_err();
        assert_eq!(e.kind, EvalErrorKind::Unknown);
    }

    #[test]
    fn dangling_reference_is_error() {
        let (store, _) = simulated();
        let data = CosyData::new(&store);
        let e = data
            .attr(
                &ObjRef {
                    class: "Region".into(),
                    index: 999_999,
                },
                "Name",
            )
            .unwrap_err();
        assert_eq!(e.kind, EvalErrorKind::Other);
    }
}
