//! The `spec_frontend` corpus and the per-spec front-end pipeline
//! (source → parse → check → compile → lint with flow → JSON report).

use crate::fingerprint::Fnv;
use crate::gen::Rng;
use crate::trace::Tracer;
use kojak::asl_eval::COSY_DATA_MODEL;
use kojak::cosy::suite::{standard_suite_source, SUITE, SUITE_PROPERTIES};

/// What a corpus entry is known to be, independently of the tool: the
/// negative specs were written to fail in exactly one way, the standard
/// suite is shipped clean.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Known {
    /// Parses, checks and lints without an active finding.
    Clean,
    /// Parses and checks; lint findings are allowed.
    Lints,
    ParseError,
    CheckError,
    /// Lints with at least one finding of this rule (and verdict tag).
    Finding(&'static str, Option<&'static str>),
}

pub struct SpecInput {
    pub name: String,
    pub source: String,
    pub known: Known,
}

/// What the front end said about one spec.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Verdict {
    /// `parse-error`, `check-error` or `linted`.
    pub status: &'static str,
    pub findings: u64,
    pub suppressed: u64,
    pub proofs: u64,
    pub properties: u64,
    pub ir_nodes: u64,
    /// `rule` or `rule/verdict` of every active finding, in report order.
    pub rules: Vec<String>,
    /// FNV-1a of the JSON report (of the rendered diagnostics for errors).
    pub hash: u64,
}

impl Verdict {
    /// Does this verdict contradict what the spec is known to be?
    pub fn contradicts(&self, known: Known) -> bool {
        let has = |rule: &str, tag: Option<&str>| {
            let want = match tag {
                Some(t) => format!("{rule}/{t}"),
                None => rule.to_string(),
            };
            self.rules.contains(&want)
        };
        !match known {
            Known::Clean => self.status == "linted" && self.findings == 0,
            Known::Lints => self.status == "linted",
            Known::ParseError => self.status == "parse-error",
            Known::CheckError => self.status == "check-error",
            Known::Finding(rule, tag) => self.status == "linted" && has(rule, tag),
        }
    }
}

/// One spec through the whole front end. The JSON report (or rendered
/// diagnostics) is returned for the caller to hash after its clock stops.
pub fn judge(source: &str, tracer: &mut Tracer) -> (Verdict, String) {
    let failed = |status, text: String| {
        (
            Verdict {
                status,
                findings: 0,
                suppressed: 0,
                proofs: 0,
                properties: 0,
                ir_nodes: 0,
                rules: Vec::new(),
                hash: 0,
            },
            text,
        )
    };
    let ast = match tracer.span("asl-core.parse", 1, |_| kojak::asl_core::parse(source)) {
        Ok(ast) => ast,
        Err(diags) => return failed("parse-error", diags.render(source)),
    };
    let spec = match tracer.span("asl-core.check", 1, |_| kojak::asl_core::check(&ast)) {
        Ok(spec) => spec,
        Err(diags) => return failed("check-error", diags.render(source)),
    };
    // `lint_with` lowers the spec itself; the separate compile is the
    // step an engine load performs, and its IR size is a layer count.
    let compiled = tracer.span("asl-eval.compile", 1, |_| kojak::asl_eval::compile(&spec));
    let report = tracer.span("kojak-lint.lint_with_flow", 1, |_| {
        kojak::lint::lint_with(&spec, source, true)
    });
    let json = tracer.span("kojak-lint.to_json", 1, |_| report.to_json(source));
    let verdict = Verdict {
        status: "linted",
        findings: report.findings.len() as u64,
        suppressed: report.suppressed.len() as u64,
        proofs: report.proofs.len() as u64,
        properties: spec.properties().len() as u64,
        ir_nodes: compiled.node_count() as u64,
        rules: report
            .findings
            .iter()
            .map(|f| match f.verdict {
                Some(v) => format!("{}/{v}", f.rule),
                None => f.rule.to_string(),
            })
            .collect(),
        hash: 0,
    };
    (verdict, json)
}

pub fn hashed(mut verdict: Verdict, text: &str) -> Verdict {
    verdict.hash = Fnv::of(text.as_bytes());
    verdict
}

/// Replace whole-word occurrences of `word` by `word` + `suffix`.
fn suffix_word(text: &str, word: &str, suffix: &str) -> String {
    let is_ident = |c: char| c.is_ascii_alphanumeric() || c == '_';
    let mut out = String::with_capacity(text.len() + 64);
    let mut rest = text;
    while let Some(at) = rest.find(word) {
        let before_ok = !rest[..at].chars().next_back().is_some_and(is_ident);
        let after = &rest[at + word.len()..];
        let after_ok = !after.chars().next().is_some_and(is_ident);
        out.push_str(&rest[..at + word.len()]);
        if before_ok && after_ok {
            out.push_str(suffix);
        }
        rest = after;
    }
    out.push_str(rest);
    out
}

/// The standard properties `copies` times over. Copy 0 is the suite
/// itself; copy `i` renames every property and constant (`_c<i>`) and
/// perturbs its thresholds, so the copies are related but not clones.
/// Thresholds grow with `i` (the seed only jitters them within their
/// step), so which copy's condition implies which is the same for every
/// seed — and with it the cross-property findings.
pub fn synthetic_suite(copies: usize, rng: &mut Rng) -> String {
    let constants = [
        "ImbalanceThreshold",
        "FrequentCallThreshold",
        "GranularityThreshold",
    ];
    let mut out = format!("{COSY_DATA_MODEL}\n{SUITE_PROPERTIES}");
    for i in 1..copies {
        let suffix = format!("_c{i}");
        let mut text = SUITE_PROPERTIES.to_string();
        for name in SUITE.iter().map(|p| p.name).chain(constants) {
            text = suffix_word(&text, name, &suffix);
        }
        let step = |rng: &mut Rng| 1.0 + 0.02 * i as f64 + 0.005 * rng.unit();
        text = text
            .replace("= 0.25;", &format!("= {:.6};", 0.25 * step(rng)))
            .replace("= 100.0;", &format!("= {:.4};", 100.0 * step(rng)))
            .replace("= 0.0001;", &format!("= {:.9};", 0.0001 * step(rng)));
        let floor = format!("{:.9}", 1e-6 * (i as f64 + 0.25 * rng.unit()));
        text = text
            .replace("> 0;", &format!("> {floor};"))
            .replace(">0;", &format!("> {floor};"));
        out.push_str(&text);
    }
    out
}

/// The corpus: the standard suite, the suite plus a user property,
/// 2×/4×/8× synthetic suites, and four negative specs.
pub fn corpus(seed: u64) -> Vec<SpecInput> {
    let mut rng = Rng::new(seed, 0x5bec);
    let with_model = |body: &str| format!("{}\n{body}", standard_suite_source());
    let entry = |name: &str, source: String, known| SpecInput {
        name: name.to_string(),
        source,
        known,
    };
    vec![
        entry("standard", standard_suite_source(), Known::Clean),
        entry(
            "standard+io_contention",
            with_model(include_str!("../specs/io_contention.asl")),
            Known::Clean,
        ),
        entry("synthetic-2x", synthetic_suite(2, &mut rng), Known::Lints),
        entry("synthetic-4x", synthetic_suite(4, &mut rng), Known::Lints),
        entry("synthetic-8x", synthetic_suite(8, &mut rng), Known::Lints),
        entry(
            "neg-parse-error",
            with_model(include_str!("../specs/neg_parse_error.asl")),
            Known::ParseError,
        ),
        entry(
            "neg-type-error",
            with_model(include_str!("../specs/neg_type_error.asl")),
            Known::CheckError,
        ),
        entry(
            "neg-div-by-zero",
            with_model(include_str!("../specs/neg_div_by_zero.asl")),
            Known::Finding("possible-div-by-zero", Some("proven-div-by-zero")),
        ),
        entry(
            "neg-unit-mismatch",
            with_model(include_str!("../specs/neg_unit_mismatch.asl")),
            Known::Finding("unit-mismatch", Some("proven")),
        ),
    ]
}

/// Canary over the corpus: FNV-1a of every name and source, in order.
pub fn corpus_canary(corpus: &[SpecInput]) -> u64 {
    let mut f = Fnv::default();
    for spec in corpus {
        f.str(&spec.name);
        f.str(&spec.source);
    }
    f.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suffixing_respects_word_boundaries() {
        assert_eq!(
            suffix_word("IoCost IoCostly xIoCost (IoCost)", "IoCost", "_c1"),
            "IoCost_c1 IoCostly xIoCost (IoCost_c1)"
        );
    }

    #[test]
    fn every_corpus_entry_is_what_it_is_known_to_be() {
        for spec in corpus(5) {
            let (verdict, _) = judge(&spec.source, &mut Tracer::off());
            assert!(
                !verdict.contradicts(spec.known),
                "{}: {verdict:?} contradicts {:?}",
                spec.name,
                spec.known
            );
        }
    }

    #[test]
    fn seeds_change_the_sources_but_not_the_verdict_counts() {
        let counts = |seed| -> Vec<(String, u64, u64, u64)> {
            corpus(seed)
                .iter()
                .map(|s| {
                    let (v, _) = judge(&s.source, &mut Tracer::off());
                    (s.name.clone(), v.findings, v.suppressed, v.proofs)
                })
                .collect()
        };
        assert_eq!(counts(1), counts(2));
        assert_ne!(corpus_canary(&corpus(1)), corpus_canary(&corpus(2)));
        assert_eq!(corpus_canary(&corpus(1)), corpus_canary(&corpus(1)));
    }
}
