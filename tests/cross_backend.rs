//! The load-bearing cross-check of the whole system: the ASL interpreter,
//! the per-context SQL compilation and the batched SQL compilation must
//! report exactly the same performance problems.

use kojak::apprentice_sim::{simulate_program, MachineModel, ProgramGenerator};
use kojak::asl_eval::{CosyData, Interpreter, Value};
use kojak::asl_sql::{
    compile_batch, compile_property, eval_batch, eval_compiled, generate_schema, loader,
};
use kojak::cosy::Analyzer;
use kojak::perfdata::Store;
use kojak::reldb::Database;

/// Collect holding (property, context, severity, confidence) per strategy
/// and assert equality.
fn cross_check(store: &Store, version: kojak::perfdata::VersionId) {
    // Which instances exist is the analyzer's decision, read off the
    // checked signatures; how they are evaluated is what is compared.
    let analyzer = Analyzer::new(store, version).unwrap();
    let spec = analyzer.spec();
    let schema = generate_schema(&spec.model).unwrap();
    let mut db = Database::new();
    schema.create_all(&mut db).unwrap();
    let data = CosyData::new(store);
    loader::load_store(&mut db, &schema, &spec.model, &data).unwrap();
    let interp = Interpreter::new(spec, &data).unwrap();
    let basis = analyzer.basis();

    let mut checked = 0usize;
    let mut held = 0usize;
    for &run in &store.versions[version.index()].runs {
        for family in analyzer.families() {
            let (name, class, ids) = (family.property.as_str(), family.class(), &family.subjects);
            if ids.is_empty() {
                continue;
            }
            // Batched once per (property, run).
            let fixed = [(1usize, Value::run(run)), (2usize, Value::region(basis))];
            let batch: std::collections::HashMap<u32, _> =
                compile_batch(spec, &schema, name, 0, &fixed, Some(ids))
                    .unwrap()
                    .pipe(|bc| eval_batch(&db, &bc).unwrap())
                    .into_iter()
                    .collect();
            for &id in ids.iter() {
                let args = vec![family.subject(id), Value::run(run), Value::region(basis)];
                let sql = compile_property(spec, &schema, name, &args)
                    .and_then(|cp| eval_compiled(&db, &cp))
                    .unwrap();
                let by_interp = match interp.eval_property(name, &args) {
                    Ok(o) => Some(o),
                    Err(e) if e.is_not_applicable() => None,
                    Err(e) => panic!("{name}: {e}"),
                };
                checked += 1;
                let interp_holds = by_interp.as_ref().is_some_and(|o| o.holds);
                assert_eq!(
                    interp_holds, sql.holds,
                    "{name} {class}#{id} run {run}: interp vs per-context SQL"
                );
                let in_batch = batch.contains_key(&id);
                assert_eq!(
                    interp_holds, in_batch,
                    "{name} {class}#{id} run {run}: interp vs batch"
                );
                if let (Some(i), Some(b)) = (by_interp.as_ref(), batch.get(&id)) {
                    if i.holds {
                        held += 1;
                        let rel = 1e-9 * i.severity.abs().max(1.0);
                        assert!(
                            (i.severity - sql.severity).abs() <= rel,
                            "{name}: severity {} vs {}",
                            i.severity,
                            sql.severity
                        );
                        assert!(
                            (i.severity - b.severity).abs() <= rel,
                            "{name}: severity {} vs batch {}",
                            i.severity,
                            b.severity
                        );
                        assert_eq!(i.confidence, sql.confidence, "{name}");
                    }
                }
            }
        }
    }
    assert!(checked > 100, "only {checked} contexts cross-checked");
    assert!(held > 10, "only {held} holding contexts");
}

/// Small helper: method-style piping for readability above.
trait Pipe: Sized {
    fn pipe<T>(self, f: impl FnOnce(Self) -> T) -> T {
        f(self)
    }
}
impl<T> Pipe for T {}

#[test]
fn backends_agree_on_particle_mc() {
    let machine = MachineModel::t3e_900();
    let mut store = Store::new();
    let version = simulate_program(
        &mut store,
        &kojak::apprentice_sim::archetypes::particle_mc(29),
        &machine,
        &[1, 4, 16],
    );
    cross_check(&store, version);
}

#[test]
fn backends_agree_on_generated_program() {
    let machine = MachineModel::t3e_900();
    let gen = ProgramGenerator {
        seed: 99,
        functions: 5,
        max_depth: 3,
        max_fanout: 3,
        base_work: 0.01,
        comm_probability: 0.7,
    };
    let model = gen.generate();
    let mut store = Store::new();
    let version = simulate_program(&mut store, &model, &machine, &[1, 8, 32]);
    cross_check(&store, version);
}

/// Every construct `asl_sql::compile` translates that the standard suite
/// never reaches: `+ != <= >= NOT %`, unary minus, both quantifiers,
/// `AVG`/`MAX`/`COUNT` aggregates, `COUNT(set)` and the two-argument
/// `MAX`/`MIN` (→ `GREATEST`/`LEAST`), with named conditions and guarded
/// arms so `fired` is more than one flag.
const GENERATOR_GRAMMAR: &str = r#"
Property GrammarArith(Region r, TestRun t, Region Basis) {
    LET float Incl = Duration(r,t);
        float Padded = Incl + Summary(r,t).Ovhd
    IN CONDITION: (grew) Padded != Incl AND Incl + Incl <= Duration(Basis,t) AND Padded >= -Incl
               OR (odd) NOT (t.NoPe % 2 != 1) AND Incl * 2 > Duration(Basis,t);
    CONFIDENCE: MAX((grew) -> 1, (odd) -> 0.5);
    SEVERITY: MAX((grew) -> MIN(Padded, Duration(Basis,t)) / MAX(Duration(Basis,t), Incl),
                  (odd) -> 0.25);
}

Property GrammarQuantifiers(Region r, TestRun t, Region Basis) {
    CONDITION: EXISTS(s IN r.TotTimes WITH s.Run == t AND s.Ovhd > 0)
           AND FORALL(s IN r.TotTimes WITH s.Incl >= s.Excl AND s.Ovhd * 4 <= s.Incl);
    CONFIDENCE: 1;
    SEVERITY: COUNT(r.TypTimes) + 0.5;
}

Property GrammarAggregates(Region r, TestRun t, Region Basis) {
    LET int N = COUNT(tt.Time WHERE tt IN r.TypTimes AND tt.Run == t);
        float Mean = AVG(tt.Time WHERE tt IN r.TypTimes AND tt.Run == t);
        float Peak = MAX(tt.Time WHERE tt IN r.TypTimes AND tt.Run == t)
    IN CONDITION: N > 0 AND Peak >= Mean; CONFIDENCE: 1;
    SEVERITY: (Peak - Mean) / Duration(Basis,t) + N;
}
"#;

#[test]
fn backends_agree_on_everything_the_generator_emits() {
    use kojak::cosy::backend::{Backend, PreparedBackend};

    let src = format!("{}\n{GENERATOR_GRAMMAR}", kojak::asl_eval::COSY_DATA_MODEL);
    let spec =
        kojak::asl_core::parse_and_check(&src).unwrap_or_else(|d| panic!("{}", d.render(&src)));
    let mut store = Store::new();
    let version = simulate_program(
        &mut store,
        &kojak::apprentice_sim::archetypes::particle_mc(29),
        &MachineModel::t3e_900(),
        &[1, 4, 16],
    );
    let basis = store.main_region(version).unwrap();
    let v = &store.versions[version.index()];
    let prepared: Vec<(Backend, PreparedBackend<'_>)> = [
        Backend::Interpreter,
        Backend::Compiled,
        Backend::Sql,
        Backend::SqlBatched,
    ]
    .into_iter()
    .map(|b| (b, PreparedBackend::prepare(b, &spec, &store).unwrap()))
    .collect();

    for prop in ["GrammarArith", "GrammarQuantifiers", "GrammarAggregates"] {
        let mut held = 0usize;
        let mut not_held = 0usize;
        for &run in &v.runs {
            for f in &v.functions {
                for region in &store.functions[f.index()].regions {
                    let args = [
                        Value::region(*region),
                        Value::run(run),
                        Value::region(basis),
                    ];
                    // `None` (not applicable: an empty UNIQUE/AVG/MAX) and
                    // `holds == false` both mean "no problem here".
                    let outcomes: Vec<_> = prepared
                        .iter()
                        .map(|(b, p)| {
                            let o = p.eval(prop, &args).unwrap_or_else(|e| panic!("{b:?}: {e}"));
                            (*b, o.filter(|o| o.holds))
                        })
                        .collect();
                    let (_, reference) = &outcomes[0];
                    match reference {
                        Some(_) => held += 1,
                        None => not_held += 1,
                    }
                    for (b, o) in &outcomes[1..] {
                        let ctx = format!("{prop} {region:?} run {run}: Interpreter vs {b:?}");
                        assert_eq!(reference.is_some(), o.is_some(), "{ctx}: holds");
                        let (Some(i), Some(o)) = (reference, o) else {
                            continue;
                        };
                        assert_eq!(i.fired, o.fired, "{ctx}: fired");
                        assert_eq!(i.confidence, o.confidence, "{ctx}: confidence");
                        let rel = 1e-9 * i.severity.abs().max(1.0);
                        assert!(
                            (i.severity - o.severity).abs() <= rel,
                            "{ctx}: severity {} vs {}",
                            i.severity,
                            o.severity
                        );
                    }
                }
            }
        }
        assert!(held > 0, "{prop} never holds: the arms were not compared");
        assert!(
            not_held > 0,
            "{prop} always holds: the filter was not compared"
        );
    }
}
