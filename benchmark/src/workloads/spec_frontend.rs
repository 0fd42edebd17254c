//! `spec_frontend` — the spec author's loop and the tool's cold start, no
//! events at all: every spec of the corpus taken source → `parse` →
//! `check` → `compile` → `lint_with(flow = true)` → JSON report,
//! [`ROUNDS`] times over.
//!
//! Why: it bypasses every runtime layer, so it is the no-change control
//! for runtime optimisations and the workload where the compile-time cost
//! of new IR passes must show; the 8× suite exposes the quadratic
//! cross-property lint.

use super::{Name, PassClock, PassOutcome, Reference, SetUp, SetUpArgs, Workload};
use crate::corpus::{self, SpecInput, Verdict};
use crate::oracle::{self, ExpectedVerdicts, BLESSED_SEEDS};
use crate::trace::Tracer;
use std::time::Instant;

/// Times the whole corpus is judged per pass.
const ROUNDS: usize = 16;

pub struct SpecFrontend {
    corpus: Vec<SpecInput>,
    canary: u64,
    /// Per spec, in corpus order. For a seed without a committed file the
    /// counts come from the first blessed seed — the generator keeps them
    /// seed-independent — and `hash` is 0: not compared.
    expected: Vec<(String, Verdict)>,
}

pub fn set_up(args: SetUpArgs<'_>) -> Result<SetUp, String> {
    let corpus = corpus::corpus(args.seed);
    let canary = corpus::corpus_canary(&corpus);
    let name = Name::SpecFrontend.as_str();
    let (expected, oracle_from) = if let Some(Reference::Verdicts(v)) = args.cache.as_ref() {
        (v.clone(), "this run's first set-up")
    } else if args.bless {
        let specs: Vec<(String, Verdict)> = corpus
            .iter()
            .map(|s| {
                let (verdict, text) = corpus::judge(&s.source, &mut Tracer::off());
                (s.name.clone(), corpus::hashed(verdict, &text))
            })
            .collect();
        if let Some((spec, (_, verdict))) = corpus
            .iter()
            .zip(&specs)
            .find(|(spec, (_, v))| v.contradicts(spec.known))
        {
            return Err(format!(
                "refusing to bless: {} is known to be {:?} but judged {verdict:?}",
                spec.name, spec.known
            ));
        }
        let expected = ExpectedVerdicts {
            canary,
            specs: specs.clone(),
        };
        oracle::save(name, args.seed, &expected.to_json(args.seed))?;
        (specs, "blessed now")
    } else if let Some(e) = oracle::load(name, args.seed, ExpectedVerdicts::from_json)? {
        if e.canary != canary {
            return Err(format!(
                "workload drifted: spec_frontend seed {} generates corpus canary {canary:016x}, \
                 expected/ holds {:016x}; if the corpus change is intended, rerun with --bless",
                args.seed, e.canary
            ));
        }
        (e.specs, "expected/")
    } else {
        let base = oracle::load(name, BLESSED_SEEDS[0], ExpectedVerdicts::from_json)?
            .ok_or_else(|| format!("expected/{name}.seed-{}.json is missing", BLESSED_SEEDS[0]))?;
        let counts_only = base
            .specs
            .into_iter()
            .map(|(name, v)| (name, Verdict { hash: 0, ..v }))
            .collect();
        (counts_only, "expected/ (counts of the first blessed seed)")
    };
    *args.cache = Some(Reference::Verdicts(expected.clone()));
    Ok(SetUp {
        workload: Box::new(SpecFrontend {
            corpus,
            canary,
            expected,
        }),
        oracle_s: 0.0,
        oracle_from,
    })
}

impl Workload for SpecFrontend {
    fn canary(&self) -> u64 {
        self.canary
    }

    fn events_per_pass(&self) -> u64 {
        0
    }

    fn pass(&self, _pass_no: usize, tracer: &mut Tracer) -> Result<PassOutcome, String> {
        let mut out = PassOutcome::default();
        let mut judged: Vec<(Verdict, String)> = Vec::with_capacity(ROUNDS * self.corpus.len());
        let clock = PassClock::start();
        for _ in 0..ROUNDS {
            for spec in &self.corpus {
                let handed = Instant::now();
                let result = corpus::judge(&spec.source, tracer);
                out.latencies_ms
                    .push(("spec", handed.elapsed().as_secs_f64() * 1e3));
                judged.push(result);
            }
        }
        clock.stop(&mut out);

        out.attempted = judged.len() as u64;
        let mut totals = (0u64, 0u64, 0u64, 0u64);
        for (i, (verdict, text)) in judged.into_iter().enumerate() {
            let spec = &self.corpus[i % self.corpus.len()];
            let verdict = corpus::hashed(verdict, &text);
            if i < self.corpus.len() {
                totals.0 += verdict.findings;
                totals.1 += verdict.proofs;
                totals.2 += verdict.ir_nodes;
                totals.3 += verdict.properties;
            }
            let wrong = if verdict.contradicts(spec.known) {
                Some(format!("known to be {:?}", spec.known))
            } else {
                match self.expected.get(i % self.corpus.len()) {
                    Some((name, want)) if *name == spec.name => {
                        let want = Verdict {
                            hash: if want.hash == 0 {
                                verdict.hash
                            } else {
                                want.hash
                            },
                            ..want.clone()
                        };
                        (want != verdict).then(|| format!("expected {want:?}"))
                    }
                    _ => Some("no expectation under that name".to_string()),
                }
            };
            if let Some(why) = wrong {
                out.fail(1, || {
                    format!("spec {}: judged {verdict:?}, {why}", spec.name)
                });
            }
        }
        out.counts = vec![
            ("findings", totals.0),
            ("proofs", totals.1),
            ("ir_nodes", totals.2),
            ("properties", totals.3),
        ];
        Ok(out)
    }
}
