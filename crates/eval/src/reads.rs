//! What each property of a compiled spec reads of the store.
//!
//! A COSY property is instantiated as `P(subject, t, Basis)` — a region or
//! call site, the analyzed run and the ranking basis. Its *read summary*
//! ([`PropertyReads`]) says which measurement sets ([`Measurements`]) it
//! reads, of whom ([`Owner`]: the subject or the basis), and of which runs
//! ([`Runs`]):
//!
//! * `x IN s.Set WITH x.Run == t` (an indexed [`Ir::FilterEq`] keyed on the
//!   analyzed run) reads the analyzed run only;
//! * the *selected record* of the subject's set `S`,
//!   `UNIQUE({x IN r.S WITH x.Run.NoPe == MIN(y.Run.NoPe WHERE y IN r.S)})`
//!   (the `MIN` possibly behind an [`Ir::Cached`]), reads `S` in the
//!   *selected run* ([`Runs::Selected`]): of the runs holding a record of
//!   `S`, the one with the fewest processors. So does any read of that
//!   record, and a filter of a set of the same subject keyed on its `.Run`
//!   — an indexed one, or a comprehension or aggregate whose first
//!   conjunct is `x.Run == <that run>`;
//! * any other key, and an unfiltered `s.Set`, reads other runs too.
//!
//! A property that navigates anywhere else — a region's `ParentRegion`, a
//! call's `Caller` or `CallingReg`, a set of anything but the subject or
//! the basis — is [`PropertyReads::Unclassified`]. A summary also says,
//! per set of the subject, whether the property is not applicable in a
//! run that holds no record of it ([`ReadSet::requires_own`]): whether it
//! takes `UNIQUE` of the analyzed run's records on every evaluation,
//! before it uses anything of another run.
//!
//! The summary is derived once per [`CompiledSpec`], beside its batch plan
//! and never in the node pool, by one walk of each property body in
//! evaluation order that follows helper calls (`Summary`, `Duration`, …)
//! with their arguments bound. The online engine inverts it into which
//! properties a stored fact can change.

use crate::compile::{CompiledSpec, Ir, NodeRef};
use asl_core::ast::{AggOp, BinOp};

/// A measurement set of the COSY data model: the per-run records hung off
/// a region (`TotTimes`, `TypTimes`) or a call site (`Sums`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Measurements {
    /// `Region.TotTimes`: total timings.
    TotTimes,
    /// `Region.TypTimes`: typed (per-overhead-family) timings.
    TypTimes,
    /// `FunctionCall.Sums`: call-site statistics.
    Sums,
}

impl Measurements {
    /// The three sets, in bit order.
    pub const ALL: [Measurements; 3] = [
        Measurements::TotTimes,
        Measurements::TypTimes,
        Measurements::Sums,
    ];

    /// The set attribute of that name.
    fn of_attr(attr: &str) -> Option<Measurements> {
        match attr {
            "TotTimes" => Some(Measurements::TotTimes),
            "TypTimes" => Some(Measurements::TypTimes),
            "Sums" => Some(Measurements::Sums),
            _ => None,
        }
    }
}

/// Whose measurements a read is of.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Owner {
    /// The property's subject, its first parameter.
    Subject,
    /// The ranking basis, its third parameter.
    Basis,
}

/// Which runs' records of a set a read reaches.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Runs {
    /// The analyzed run's only (`x.Run == t`).
    Analyzed,
    /// The run the subject's selected record of this set is of: of the
    /// runs holding a record of the set, the one with the fewest
    /// processors.
    Selected(Measurements),
    /// Other runs too: any other key, or no filter at all.
    Others,
}

impl Runs {
    /// Every class, in bit order.
    pub const ALL: [Runs; 5] = [
        Runs::Analyzed,
        Runs::Selected(Measurements::TotTimes),
        Runs::Selected(Measurements::TypTimes),
        Runs::Selected(Measurements::Sums),
        Runs::Others,
    ];

    fn index(self) -> usize {
        match self {
            Runs::Analyzed => 0,
            Runs::Selected(set) => 1 + set as usize,
            Runs::Others => 4,
        }
    }
}

/// A set of `(owner, measurement set, runs)` reads, and of the subject's
/// sets a property requires a record of in the analyzed run: one bit each.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ReadSet(u64);

impl ReadSet {
    /// How many bits a read set has: the reads', then the requirements'.
    pub const BITS: usize = 2 * 3 * Runs::ALL.len() + 3;

    /// The bit of a read.
    pub fn bit(owner: Owner, set: Measurements, runs: Runs) -> usize {
        (owner as usize * 3 + set as usize) * Runs::ALL.len() + runs.index()
    }

    /// The bit of requiring a record of the subject's `set` in the
    /// analyzed run.
    pub fn own_bit(set: Measurements) -> usize {
        Self::BITS - 3 + set as usize
    }

    fn insert(&mut self, bit: usize) {
        self.0 |= 1 << bit;
    }

    /// Is `set` of `owner` read in `runs`?
    pub fn reads_in(self, owner: Owner, set: Measurements, runs: Runs) -> bool {
        self.0 & 1 << Self::bit(owner, set, runs) != 0
    }

    /// Is anything read of a run other than the analyzed one?
    pub fn reads_other_runs(self) -> bool {
        self.iter().any(|(_, _, runs)| runs != Runs::Analyzed)
    }

    /// Is the property not applicable in a run that holds no record of its
    /// subject's `set`?
    pub fn requires_own(self, set: Measurements) -> bool {
        self.0 & 1 << Self::own_bit(set) != 0
    }

    /// The bits set, ascending.
    pub fn bits(self) -> impl Iterator<Item = usize> {
        (0..Self::BITS).filter(move |bit| self.0 & 1 << bit != 0)
    }

    /// The reads, ordered by owner, then set, then runs.
    pub fn iter(self) -> impl Iterator<Item = (Owner, Measurements, Runs)> {
        let owners = [Owner::Subject, Owner::Basis].into_iter();
        let all = owners.flat_map(|owner| {
            Measurements::ALL
                .into_iter()
                .flat_map(move |set| Runs::ALL.map(|runs| (owner, set, runs)))
        });
        all.filter(move |&(owner, set, runs)| self.reads_in(owner, set, runs))
    }
}

/// The read summary of one property.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PropertyReads {
    /// Every store read is of a measurement set of the subject or the
    /// basis: these. (Attributes of the runs themselves, such as `NoPe`,
    /// and region names never change once stored.)
    Classified(ReadSet),
    /// The property reads something else, or is not instantiated as
    /// `(subject, run, basis)`: any fact of its version can change it.
    Unclassified,
}

/// What a node's value is, as far as reading the store goes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Abs {
    /// Nothing a read can start from: a number, a string, a flag, an
    /// enum variant.
    Plain,
    /// The subject or the basis.
    Context(Owner),
    /// A run of that class: the analyzed one, a selected one, or any.
    Run(Runs),
    /// Records of a measurement set in those runs (a filtered subset
    /// included).
    Records(Owner, Measurements, Runs),
    /// One such record.
    Record(Owner, Measurements, Runs),
}

impl Abs {
    /// Is this of a run other than the analyzed one?
    fn foreign(self) -> bool {
        match self {
            Abs::Run(runs) | Abs::Records(.., runs) | Abs::Record(.., runs) => {
                runs != Runs::Analyzed
            }
            Abs::Plain | Abs::Context(_) => false,
        }
    }
}

/// Which runs' records of `owner`'s set a filter `x.Run == key` keeps.
fn keyed(owner: Owner, key: Abs) -> Runs {
    match key {
        Abs::Run(Runs::Analyzed) => Runs::Analyzed,
        // A run selected by the subject's set says nothing of the basis.
        Abs::Run(runs @ Runs::Selected(_)) if owner == Owner::Subject => runs,
        _ => Runs::Others,
    }
}

/// The walk met a navigation it does not classify.
struct Unclassified;

/// One property body's walk, in evaluation order.
struct Walk<'a> {
    cs: &'a CompiledSpec,
    reads: ReadSet,
    /// The helper functions being walked: recursion is unclassified.
    calls: Vec<u32>,
    /// Is the node being walked evaluated whenever evaluation gets this
    /// far? Not behind `AND`/`OR`'s right operand, in a set construct's
    /// per-element predicate or value, or in a confidence or severity arm.
    eager: bool,
    /// Can a value of another run have been used before the node being
    /// walked?
    foreign: bool,
}

impl Walk<'_> {
    /// The value of `node`, used by its parent.
    fn operand(&mut self, node: NodeRef, env: &mut [Abs]) -> Result<Abs, Unclassified> {
        let value = self.node(node, env)?;
        self.foreign |= value.foreign();
        Ok(value)
    }

    /// `f`, walking code that runs on some evaluations only.
    fn lazily<T>(&mut self, f: impl FnOnce(&mut Self) -> T) -> T {
        let eager = std::mem::replace(&mut self.eager, false);
        let value = f(self);
        self.eager = eager;
        value
    }

    /// The value of `node` with the slots of its body as in `env`,
    /// recording each read on the way.
    fn node(&mut self, node: NodeRef, env: &mut [Abs]) -> Result<Abs, Unclassified> {
        let cs = self.cs;
        Ok(match cs.node(node) {
            Ir::Load(slot) => env.get(*slot as usize).copied().unwrap_or(Abs::Plain),
            Ir::Cached { expr, .. } => self.operand(*expr, env)?,
            Ir::Attr { base, attr } => match (self.operand(*base, env)?, *attr) {
                (Abs::Context(_), "Name") => Abs::Plain,
                (Abs::Context(owner), attr) => {
                    let set = Measurements::of_attr(attr).ok_or(Unclassified)?;
                    self.reads.insert(ReadSet::bit(owner, set, Runs::Others));
                    Abs::Records(owner, set, Runs::Others)
                }
                (Abs::Record(.., runs), "Run") => Abs::Run(runs),
                // Every other attribute of a record or a run is a number,
                // a date or a timing type.
                (Abs::Record(..) | Abs::Run(_), _) => Abs::Plain,
                _ => return Err(Unclassified),
            },
            Ir::FilterEq {
                obj,
                set_attr,
                elem_attr,
                key,
                ..
            } => {
                let Abs::Context(owner) = self.operand(*obj, env)? else {
                    return Err(Unclassified);
                };
                let set = Measurements::of_attr(set_attr).ok_or(Unclassified)?;
                let runs = match (*elem_attr, self.operand(*key, env)?) {
                    ("Run", key) => keyed(owner, key),
                    _ => Runs::Others,
                };
                self.reads.insert(ReadSet::bit(owner, set, runs));
                Abs::Records(owner, set, runs)
            }
            Ir::Unique(records) => {
                // Evaluating the selected record uses nothing yet: it
                // fails, or not, alike in every run.
                if let Some(set) = self.selection(*records, env) {
                    let selected = Runs::Selected(set);
                    self.reads
                        .insert(ReadSet::bit(Owner::Subject, set, selected));
                    return Ok(Abs::Record(Owner::Subject, set, selected));
                }
                let Abs::Records(owner, set, runs) = self.operand(*records, env)? else {
                    return Err(Unclassified);
                };
                let own = (owner, runs) == (Owner::Subject, Runs::Analyzed);
                if own && self.eager && !self.foreign {
                    self.reads.insert(ReadSet::own_bit(set));
                }
                Abs::Record(owner, set, runs)
            }
            Ir::SetComp {
                slot, source, pred, ..
            } => {
                let records = self.bind(*slot, *source, Some(*pred), env)?;
                self.lazily(|walk| walk.operand(*pred, env))?;
                records
            }
            Ir::Aggregate {
                slot,
                source,
                value,
                pred,
                ..
            } => {
                self.bind(*slot, *source, *pred, env)?;
                self.lazily(|walk| {
                    for child in pred.iter().chain([value]) {
                        walk.operand(*child, env)?;
                    }
                    Ok(())
                })?;
                Abs::Plain
            }
            Ir::Quantifier {
                slot, source, pred, ..
            } => {
                // A quantifier's predicate is its body, not a filter.
                self.bind(*slot, *source, None, env)?;
                if let Some(pred) = pred {
                    self.lazily(|walk| walk.operand(*pred, env))?;
                }
                Abs::Plain
            }
            Ir::Binary(BinOp::And | BinOp::Or, lhs, rhs) => {
                self.operand(*lhs, env)?;
                self.lazily(|walk| walk.operand(*rhs, env))?;
                Abs::Plain
            }
            Ir::Call { func, args } => {
                if self.calls.contains(func) {
                    return Err(Unclassified);
                }
                let body = cs.functions_ir().nth(*func as usize).ok_or(Unclassified)?;
                let mut frame = vec![Abs::Plain; body.n_slots.max(args.len())];
                for (param, arg) in frame.iter_mut().zip(args.iter()) {
                    *param = self.operand(*arg, env)?;
                }
                self.calls.push(*func);
                let value = self.operand(body.body, &mut frame);
                self.calls.pop();
                value?
            }
            // Literals, constants and operators: only their operands read.
            other => {
                let mut walked = Ok(Abs::Plain);
                other.for_each_child(&mut |child| {
                    if walked.is_ok() {
                        walked = self.operand(child, env);
                    }
                });
                walked?;
                Abs::Plain
            }
        })
    }

    /// Walk a set construct's source and bind its binder `slot` to one of
    /// the records it yields — those `pred`'s first conjunct keeps, when
    /// it is a key the walk classifies; those records.
    fn bind(
        &mut self,
        slot: u32,
        source: NodeRef,
        pred: Option<NodeRef>,
        env: &mut [Abs],
    ) -> Result<Abs, Unclassified> {
        let records = match self.keyed_source(slot, source, pred, env)? {
            Some(records) => records,
            None => self.operand(source, env)?,
        };
        let Abs::Records(owner, set, runs) = records else {
            return Err(Unclassified);
        };
        *env.get_mut(slot as usize).ok_or(Unclassified)? = Abs::Record(owner, set, runs);
        Ok(records)
    }

    /// The records of `x IN r.S WITH x.Run == key AND …` over the subject
    /// `r`, if `key` names the analyzed or a selected run. The key is read
    /// per element, so only one that cannot fail counts: a slot, or its
    /// `.Run`.
    fn keyed_source(
        &mut self,
        slot: u32,
        source: NodeRef,
        pred: Option<NodeRef>,
        env: &mut [Abs],
    ) -> Result<Option<Abs>, Unclassified> {
        let cs = self.cs;
        let (Some(set), Some(mut first)) = (self.subject_set(source, env), pred) else {
            return Ok(None);
        };
        while let Ir::Binary(BinOp::And, lhs, _) = cs.node(first) {
            first = *lhs;
        }
        let Ir::Binary(BinOp::Eq, lhs, rhs) = cs.node(first) else {
            return Ok(None);
        };
        let key = match (self.run_of(*lhs, Some(slot)), self.run_of(*rhs, Some(slot))) {
            (true, _) => *rhs,
            (_, true) => *lhs,
            _ => return Ok(None),
        };
        if !matches!(cs.node(key), Ir::Load(_)) && !self.run_of(key, None) {
            return Ok(None);
        }
        Ok(match keyed(Owner::Subject, self.operand(key, env)?) {
            Runs::Others => None,
            runs => {
                self.reads.insert(ReadSet::bit(Owner::Subject, set, runs));
                Some(Abs::Records(Owner::Subject, set, runs))
            }
        })
    }

    /// The set `S`, if `comp` is the selected record's comprehension
    /// `{x IN r.S WITH x.Run.NoPe == MIN(y.Run.NoPe WHERE y IN r.S)}` over
    /// the subject `r`.
    fn selection(&self, comp: NodeRef, env: &[Abs]) -> Option<Measurements> {
        let cs = self.cs;
        let Ir::SetComp {
            slot, source, pred, ..
        } = cs.node(comp)
        else {
            return None;
        };
        let set = self.subject_set(*source, env)?;
        let Ir::Binary(BinOp::Eq, lhs, rhs) = cs.node(*pred) else {
            return None;
        };
        // `x.Run.NoPe` of the binder in `slot`.
        let no_pe = |node: NodeRef, slot: u32| match cs.node(node) {
            Ir::Attr { base, attr: "NoPe" } => self.run_of(*base, Some(slot)),
            _ => false,
        };
        let least = |node: NodeRef| {
            let node = match cs.node(node) {
                Ir::Cached { expr, .. } => *expr,
                _ => node,
            };
            match cs.node(node) {
                Ir::Aggregate {
                    op: AggOp::Min,
                    slot,
                    source,
                    value,
                    pred: None,
                    ..
                } => no_pe(*value, *slot) && self.subject_set(*source, env) == Some(set),
                _ => false,
            }
        };
        (no_pe(*lhs, *slot) && least(*rhs)).then_some(set)
    }

    /// Is `node` `x.Run` of the slot `x` (any slot if `None`)?
    fn run_of(&self, node: NodeRef, slot: Option<u32>) -> bool {
        match self.cs.node(node) {
            Ir::Attr { base, attr: "Run" } => match self.cs.node(*base) {
                Ir::Load(loaded) => slot.is_none_or(|slot| slot == *loaded),
                _ => false,
            },
            _ => false,
        }
    }

    /// The set `S`, if `node` is `r.S` of the subject `r`.
    fn subject_set(&self, node: NodeRef, env: &[Abs]) -> Option<Measurements> {
        let Ir::Attr { base, attr } = self.cs.node(node) else {
            return None;
        };
        let Ir::Load(slot) = self.cs.node(*base) else {
            return None;
        };
        let subject = env.get(*slot as usize) == Some(&Abs::Context(Owner::Subject));
        subject.then(|| Measurements::of_attr(attr)).flatten()
    }
}

/// The read summary of every property of `cs`, in declaration order.
pub(crate) fn derive(cs: &CompiledSpec) -> Box<[PropertyReads]> {
    let summarize = |p: crate::compile::PropIr<'_>| {
        if p.n_params != 3 {
            return PropertyReads::Unclassified;
        }
        let mut env = vec![Abs::Plain; p.n_slots];
        env[..3].copy_from_slice(&[
            Abs::Context(Owner::Subject),
            Abs::Run(Runs::Analyzed),
            Abs::Context(Owner::Basis),
        ]);
        let mut walk = Walk {
            cs,
            reads: ReadSet::default(),
            calls: Vec::new(),
            eager: true,
            foreign: false,
        };
        let mut body = || -> Result<(), Unclassified> {
            // Every let, in order, then every condition; the arms only
            // where the conditions hold.
            for &(slot, value) in p.lets {
                let bound = walk.node(value, &mut env)?;
                *env.get_mut(slot as usize).ok_or(Unclassified)? = bound;
            }
            for (_, pred) in p.conditions {
                walk.operand(*pred, &mut env)?;
            }
            let arms = p.confidence.iter().chain(p.severity);
            walk.lazily(|walk| {
                for arm in arms {
                    walk.operand(arm.expr, &mut env)?;
                }
                Ok(())
            })
        };
        match body() {
            Ok(()) => PropertyReads::Classified(walk.reads),
            Err(Unclassified) => PropertyReads::Unclassified,
        }
    };
    cs.properties_ir().map(summarize).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cosy_model::COSY_DATA_MODEL;
    use Measurements::*;
    use Owner::*;
    use Runs::*;

    fn summary(property: &str) -> ReadSet {
        let src = format!("{COSY_DATA_MODEL}\n{property}");
        let spec = asl_core::parse_and_check(&src).unwrap_or_else(|d| panic!("{}", d.render(&src)));
        match crate::compile(&spec).property_reads() {
            [PropertyReads::Classified(reads)] => *reads,
            other => panic!("{other:?}"),
        }
    }

    fn reads(property: &str) -> Vec<(Owner, Measurements, Runs)> {
        summary(property).iter().collect()
    }

    /// A property over a reference record `Ref`: its duration, and the
    /// I/O time of its run through an aggregate keyed on `Ref.Run`.
    fn over_reference(reference: &str) -> String {
        format!(
            "Property Ref(Region r, TestRun t, Region Basis) {{
                LET TotalTiming Ref = {reference};
                    float Io = SUM(tt.Time WHERE tt IN r.TypTimes AND tt.Run == Ref.Run
                        AND tt.Type == IoRead)
                IN CONDITION: Duration(r, Ref.Run) > Io; CONFIDENCE: 1; SEVERITY: Ref.Incl;
            }}"
        )
    }

    const SELECTED: &str = "UNIQUE({x IN r.TotTimes WITH x.Run.NoPe ==
        MIN(y.Run.NoPe WHERE y IN r.TotTimes)})";

    /// The selected record of a set: it, its duration and the typed
    /// timings of its run are reads of the run it selects.
    #[test]
    fn a_selected_record_reads_the_run_it_selects() {
        let selected = [
            (Subject, TotTimes, Selected(TotTimes)),
            (Subject, TypTimes, Selected(TotTimes)),
        ];
        assert_eq!(reads(&over_reference(SELECTED)), selected);
        // Through a helper, and beside the analyzed run's own total.
        let helper = "TotalTiming Least(Region s) = UNIQUE({x IN s.TotTimes WITH x.Run.NoPe ==
            MIN(y.Run.NoPe WHERE y IN s.TotTimes)});\n";
        let own = over_reference("Least(r)").replace("> Io", "> Io + Duration(r, t)");
        assert_eq!(
            reads(&format!("{helper}{own}")),
            [
                (Subject, TotTimes, Analyzed),
                (Subject, TotTimes, Selected(TotTimes)),
                (Subject, TypTimes, Selected(TotTimes)),
            ]
        );
    }

    /// Shapes that differ from the selected record in one place read
    /// other runs, as any unrecognised read does.
    #[test]
    fn near_misses_of_a_selected_record_read_other_runs() {
        let others = [(Subject, TotTimes, Others), (Subject, TypTimes, Others)];
        for (near_miss, reads_too) in [
            (SELECTED.replace("MIN", "MAX"), None),
            (SELECTED.replace("==", "<"), None),
            (SELECTED.replace("==", "<="), None),
            (SELECTED.replace("y IN r.TotTimes", "y IN r.TypTimes"), None),
            (
                SELECTED.replace("y IN r.TotTimes", "y IN Basis.TotTimes"),
                Some((Basis, TotTimes, Others)),
            ),
        ] {
            let mut expected = others.to_vec();
            expected.extend(reads_too);
            expected.sort();
            assert_eq!(reads(&over_reference(&near_miss)), expected, "{near_miss}");
        }
        // A selection over the basis: the duration and typed timings of
        // the subject in the run it selects are reads of any run.
        let of_basis = SELECTED.replace("r.TotTimes", "Basis.TotTimes");
        assert_eq!(
            reads(&over_reference(&of_basis)),
            [
                (Subject, TotTimes, Others),
                (Subject, TypTimes, Others),
                (Basis, TotTimes, Others),
            ]
        );
        // The basis' duration in the run the subject's set selects.
        let basis =
            over_reference(SELECTED).replace("Duration(r, Ref.Run)", "Duration(Basis, Ref.Run)");
        assert_eq!(
            reads(&basis),
            [
                (Subject, TotTimes, Selected(TotTimes)),
                (Subject, TypTimes, Selected(TotTimes)),
                (Basis, TotTimes, Others),
            ]
        );
    }

    /// A property requires its own run's record of a set when it takes
    /// `UNIQUE` of it on every evaluation before anything of another run
    /// is used; evaluating the selected record first does not count as a
    /// use.
    #[test]
    fn a_property_requires_what_it_takes_unique_of_first() {
        let own_first = over_reference(SELECTED).replace(
            "float Io =",
            "float Own = Duration(r, t) - Duration(r, Ref.Run); float Io =",
        );
        assert!(summary(&own_first).requires_own(TotTimes));
        // Only after the selected record's run was used.
        let own_last = own_first.replace(
            "Duration(r, t) - Duration(r, Ref.Run)",
            "Duration(r, Ref.Run) - Duration(r, t)",
        );
        assert!(!summary(&own_last).requires_own(TotTimes));
        // Only on some evaluations: behind `OR`, or in an arm.
        let behind_or = over_reference(SELECTED).replace(
            "float Io =",
            "bool Own = t.NoPe > 0 OR Duration(r, t) > 0; float Io =",
        );
        assert!(!summary(&behind_or).requires_own(TotTimes));
        let in_arm =
            over_reference(SELECTED).replace("SEVERITY: Ref.Incl", "SEVERITY: Duration(r, t)");
        assert!(!summary(&in_arm).requires_own(TotTimes));
        // A sum of no records is 0, not a failure.
        assert!(!summary(&over_reference(SELECTED)).requires_own(TypTimes));
    }

    /// An indexed filter reads the analyzed run only when its key is the
    /// analyzed run itself: `Duration(r, Ref.Run)` reaches the subject's
    /// total of whichever run `Ref` names — the only read of another run
    /// this property makes of its subject.
    #[test]
    fn a_filter_keyed_on_another_run_reads_other_runs() {
        let gap = "Property Gap(Region r, TestRun t, Region Basis) {
            LET TotalTiming Ref = UNIQUE({s IN Basis.TotTimes WITH s.Run.NoPe == 1});
                float Gap = Duration(r, t) - Duration(r, Ref.Run)
            IN CONDITION: Gap > 0; CONFIDENCE: 1; SEVERITY: Gap / Duration(Basis, t);
        }";
        assert_eq!(
            reads(gap),
            [
                (Subject, TotTimes, Analyzed),
                (Subject, TotTimes, Others),
                (Basis, TotTimes, Analyzed),
                (Basis, TotTimes, Others),
            ]
        );
        let own = gap.replace("Duration(r, Ref.Run)", "Duration(r, t)");
        assert_eq!(
            reads(&own),
            [
                (Subject, TotTimes, Analyzed),
                (Basis, TotTimes, Analyzed),
                (Basis, TotTimes, Others),
            ]
        );
    }
}
