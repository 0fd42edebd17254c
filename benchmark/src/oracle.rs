//! The reference a workload's outputs are checked against — never the
//! engine under test: report fingerprints come from `Backend::Interpreter`
//! through `cosy::Analyzer` on the simulated store, and are committed
//! under `expected/` for the blessed seeds.

use crate::corpus::Verdict;
use crate::fingerprint::{Prints, RunPrint};
use crate::json::Json;
use kojak::cosy::{Analyzer, Backend, ProblemThreshold};
use kojak::online::replay::replay_run_key;
use kojak::perfdata::{Store, VersionId};
use std::path::PathBuf;

/// Seeds whose expectations are committed (`--bless` rewrites them).
pub const BLESSED_SEEDS: [u64; 2] = [1, 2];

/// Analyze every run of every version with the AST interpreter.
pub fn interpreter_prints(store: &Store) -> Prints {
    let mut out = Prints::new();
    for v in 0..store.versions.len() as u32 {
        let analyzer =
            Analyzer::new(store, VersionId(v)).expect("every simulated version has a main region");
        for &run in &store.versions[v as usize].runs {
            let report = analyzer
                .analyze(run, Backend::Interpreter, ProblemThreshold::default())
                .expect("the interpreter evaluates the standard suite");
            out.insert(replay_run_key(run).0, RunPrint::of(&report));
        }
    }
    out
}

pub fn expected_path(workload: &str, seed: u64) -> PathBuf {
    crate::bench_dir()
        .join("expected")
        .join(format!("{workload}.seed-{seed}.json"))
}

/// What is committed for one (stream workload, seed).
#[derive(Debug, Clone, PartialEq)]
pub struct ExpectedReports {
    pub canary: u64,
    pub events: u64,
    pub prints: Prints,
}

impl ExpectedReports {
    pub fn to_json(&self, workload: &str, seed: u64) -> Json {
        Json::obj([
            ("workload", Json::str(workload)),
            ("seed", seed.into()),
            ("oracle", Json::str("cosy::Analyzer, Backend::Interpreter")),
            ("canary", Json::hex(self.canary)),
            ("events", self.events.into()),
            (
                "runs",
                Json::Arr(
                    self.prints
                        .iter()
                        .map(|(key, p)| {
                            Json::Arr(vec![(*key).into(), Json::hex(p.fp), p.entries.into()])
                        })
                        .collect(),
                ),
            ),
        ])
    }

    pub fn from_json(v: &Json) -> Option<ExpectedReports> {
        let mut prints = Prints::new();
        for run in v.get("runs")?.as_arr()? {
            let [key, fp, entries] = run.as_arr()? else {
                return None;
            };
            prints.insert(
                key.as_u64()?,
                RunPrint {
                    fp: fp.as_hex()?,
                    entries: entries.as_u64()?,
                },
            );
        }
        Some(ExpectedReports {
            canary: v.get("canary")?.as_hex()?,
            events: v.get("events")?.as_u64()?,
            prints,
        })
    }
}

/// What is committed for (`spec_frontend`, seed).
#[derive(Debug, Clone, PartialEq)]
pub struct ExpectedVerdicts {
    pub canary: u64,
    pub specs: Vec<(String, Verdict)>,
}

impl ExpectedVerdicts {
    pub fn to_json(&self, seed: u64) -> Json {
        Json::obj([
            ("workload", Json::str("spec_frontend")),
            ("seed", seed.into()),
            ("canary", Json::hex(self.canary)),
            (
                "specs",
                Json::Arr(
                    self.specs
                        .iter()
                        .map(|(name, v)| {
                            Json::obj([
                                ("name", Json::str(name.as_str())),
                                ("status", Json::str(v.status)),
                                ("findings", v.findings.into()),
                                ("suppressed", v.suppressed.into()),
                                ("proofs", v.proofs.into()),
                                ("properties", v.properties.into()),
                                ("ir_nodes", v.ir_nodes.into()),
                                ("rules", Json::Arr(v.rules.iter().map(Json::str).collect())),
                                ("hash", Json::hex(v.hash)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }

    pub fn from_json(v: &Json) -> Option<ExpectedVerdicts> {
        let mut specs = Vec::new();
        for s in v.get("specs")?.as_arr()? {
            let status = match s.get("status")?.as_str()? {
                "parse-error" => "parse-error",
                "check-error" => "check-error",
                "linted" => "linted",
                _ => return None,
            };
            let rules = s
                .get("rules")?
                .as_arr()?
                .iter()
                .map(|r| r.as_str().map(str::to_string))
                .collect::<Option<Vec<_>>>()?;
            specs.push((
                s.get("name")?.as_str()?.to_string(),
                Verdict {
                    status,
                    findings: s.get("findings")?.as_u64()?,
                    suppressed: s.get("suppressed")?.as_u64()?,
                    proofs: s.get("proofs")?.as_u64()?,
                    properties: s.get("properties")?.as_u64()?,
                    ir_nodes: s.get("ir_nodes")?.as_u64()?,
                    rules,
                    hash: s.get("hash")?.as_hex()?,
                },
            ));
        }
        Some(ExpectedVerdicts {
            canary: v.get("canary")?.as_hex()?,
            specs,
        })
    }
}

/// Read and parse an expectation file; `Ok(None)` when it does not exist.
pub fn load<T>(
    workload: &str,
    seed: u64,
    parse: impl Fn(&Json) -> Option<T>,
) -> Result<Option<T>, String> {
    let path = expected_path(workload, seed);
    let text = match std::fs::read_to_string(&path) {
        Ok(t) => t,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(format!("{}: {e}", path.display())),
    };
    let json = Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    parse(&json)
        .map(Some)
        .ok_or_else(|| format!("{}: not an expectation file", path.display()))
}

pub fn save(workload: &str, seed: u64, json: &Json) -> Result<(), String> {
    let path = expected_path(workload, seed);
    std::fs::write(&path, json.pretty()).map_err(|e| format!("{}: {e}", path.display()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fingerprint::prints_of;
    use crate::gen;
    use kojak::engine::{AnalysisEngine, EngineBuilder};
    use kojak::online::replay::{events_for_run, replay_store};
    use kojak::perfdata::TestRunId;

    /// The engine's reports, fingerprinted id-free, equal the interpreter
    /// oracle's whatever the shard count and however runs interleave.
    #[test]
    fn fingerprints_do_not_depend_on_shards_or_interleaving() {
        let store = gen::simulate(5, &gen::sized_programs(5, &[2; 3]), 0);
        let reference = interpreter_prints(&store);
        assert_eq!(reference.len(), store.runs.len());

        let in_order = replay_store(&store);
        let mut streams: Vec<_> = (0..store.runs.len() as u32)
            .map(|r| events_for_run(&store, TestRunId(r)).into_iter())
            .collect();
        let mut round_robin = Vec::new();
        while round_robin.len() < in_order.len() {
            round_robin.extend(streams.iter_mut().filter_map(Iterator::next));
        }

        for shards in [1, 2, 3] {
            for events in [&in_order, &round_robin] {
                let engine = EngineBuilder::new().shards(shards).build().unwrap();
                assert_eq!(engine.ingest_batch(events).unwrap(), events.len());
                engine.flush().unwrap();
                assert_eq!(prints_of(&engine.reports()), reference, "{shards} shard(s)");
            }
        }
    }

    #[test]
    fn a_changed_report_shows_up_as_one_differing_run() {
        let store = gen::simulate(5, &gen::sized_programs(5, &[2; 1]), 0);
        let reference = interpreter_prints(&store);
        let mut tampered = reference.clone();
        tampered.get_mut(&3).unwrap().fp ^= 1;
        tampered.remove(&5);
        assert_eq!(crate::fingerprint::diff(&reference, &reference), (0, None));
        assert_eq!(
            crate::fingerprint::diff(&reference, &tampered),
            (2, Some(3))
        );
    }

    #[test]
    fn expectation_files_round_trip() {
        let store = gen::simulate(5, &gen::sized_programs(5, &[2; 1]), 0);
        let expected = ExpectedReports {
            canary: 0xdead_beef_0000_0001,
            events: 1234,
            prints: interpreter_prints(&store),
        };
        let json = Json::parse(&expected.to_json("batch_full", 9).pretty()).unwrap();
        assert_eq!(ExpectedReports::from_json(&json), Some(expected));
    }
}
