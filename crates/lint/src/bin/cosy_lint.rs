//! `cosy_lint` — command-line front end for the `kojak-lint` pass.
//!
//! Lints one or more ASL specification files and prints a text or JSON
//! report per file. The `kojak-flow` abstract interpreter runs over the
//! compiled IR, so semantic findings carry proven verdicts.
//!
//! Exit codes form a stable contract (see `--help`):
//!
//! * `0` — every file is clean (no active finding),
//! * `1` — at least one active finding (warn level),
//! * `2` — a file could not be read, parsed or type-checked.

use std::process::ExitCode;

const USAGE: &str = "\
cosy_lint — static analysis for COSY/ASL specifications

USAGE:
    cosy_lint [OPTIONS] <FILE>...

OPTIONS:
    --json          emit the report as JSON (schema 1) instead of text
    --costs         also print the static per-property cost ranking
    --with-suite    prepend the COSY data model to each file before linting
    --rules         list every rule with its description and exit
    -h, --help      print this help and exit

EXIT CODES:
    0    all files are clean: no active lint finding
    1    at least one active finding (findings are warnings, never errors)
    2    a file could not be read, parsed or type-checked (or bad usage)
";

struct Opts {
    json: bool,
    costs: bool,
    with_suite: bool,
    files: Vec<String>,
}

/// A command-line usage error; rendered above USAGE and exits with 2.
enum UsageError {
    UnknownOption(String),
    NoInputFiles,
}

impl std::fmt::Display for UsageError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            UsageError::UnknownOption(flag) => write!(f, "unknown option `{flag}`"),
            UsageError::NoInputFiles => write!(f, "no input files"),
        }
    }
}

fn parse_args(args: &[String]) -> Result<Option<Opts>, UsageError> {
    let mut opts = Opts {
        json: false,
        costs: false,
        with_suite: false,
        files: Vec::new(),
    };
    for a in args {
        match a.as_str() {
            "--json" => opts.json = true,
            "--costs" => opts.costs = true,
            "--with-suite" => opts.with_suite = true,
            "--rules" => {
                for (name, desc) in lint::rule_catalog() {
                    println!("{name:<24} {desc}");
                }
                return Ok(None);
            }
            "-h" | "--help" => {
                print!("{USAGE}");
                return Ok(None);
            }
            flag if flag.starts_with('-') => {
                return Err(UsageError::UnknownOption(flag.to_string()));
            }
            file => opts.files.push(file.to_string()),
        }
    }
    if opts.files.is_empty() {
        return Err(UsageError::NoInputFiles);
    }
    Ok(Some(opts))
}

/// Lint one file; returns the exit code it contributes.
fn run_file(path: &str, opts: &Opts) -> u8 {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("cosy_lint: {path}: {e}");
            return 2;
        }
    };
    let source = if opts.with_suite {
        format!("{}\n{text}", asl_eval::COSY_DATA_MODEL)
    } else {
        text
    };
    let spec = match asl_core::parse_and_check(&source) {
        Ok(s) => s,
        Err(diags) => {
            eprint!("{}", diags.render(&source));
            return 2;
        }
    };
    let report = lint::lint(&spec, &source);
    if opts.json {
        println!("{}", report.to_json(&source));
    } else {
        print!("{}", report.render_text(&source));
        if opts.costs {
            print!("{}", report.render_costs());
        }
    }
    u8::from(!report.is_clean())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse_args(&args) {
        Ok(Some(o)) => o,
        Ok(None) => return ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("cosy_lint: {e}\n\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let mut code = 0u8;
    for (i, file) in opts.files.iter().enumerate() {
        if opts.files.len() > 1 && !opts.json {
            if i > 0 {
                println!();
            }
            println!("==> {file}");
        }
        code = code.max(run_file(file, &opts));
    }
    ExitCode::from(code)
}
