//! The repository benchmark (see README.md).
//!
//! ```text
//! perfbench --workload NAME --seed N --seconds S --trace 0|1
//!           [--serve-bin PATH] [--scratch DIR]
//! perfbench --record NAME FIRST LAST
//! ```
//!
//! A measuring run prints log lines, then one JSON result object as its last
//! line. `--record` prints the exact-search digests of seeds FIRST..=LAST in
//! the format of `expected_digests.txt` (for `churn128_e14`, after the
//! sim's own trajectory digest).

mod churn;
mod common;
mod serve;
mod walk;

use std::process::ExitCode;

use common::{Opts, Outcome};

const USAGE: &str = "usage: perfbench --workload NAME --seed N --seconds S --trace 0|1 \
                     [--serve-bin PATH] [--scratch DIR]\n       \
                     perfbench --record NAME FIRST LAST";

fn parse(args: &[String]) -> Result<Opts, String> {
    let mut opts = Opts {
        workload: String::new(),
        seed: 0,
        seconds: 10,
        trace: false,
        serve_bin: None,
        scratch: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value"))?
            .clone();
        let number = |v: &str| v.parse::<u64>().map_err(|e| format!("{flag}: {e}"));
        match flag.as_str() {
            "--workload" => opts.workload = value,
            "--seed" => opts.seed = number(&value)?,
            "--seconds" => opts.seconds = number(&value)?,
            "--trace" => opts.trace = number(&value)? != 0,
            "--serve-bin" => opts.serve_bin = Some(value),
            "--scratch" => opts.scratch = Some(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(opts)
}

fn record(args: &[String]) -> Result<(), String> {
    let [name, first, last] = args else {
        return Err(USAGE.to_string());
    };
    let first: u64 = first.parse().map_err(|e| format!("FIRST: {e}"))?;
    let last: u64 = last.parse().map_err(|e| format!("LAST: {e}"))?;
    let records = match name.as_str() {
        walk::NAME => (first..=last)
            .map(|seed| (name.clone(), seed, walk::exact_digest(seed)))
            .collect(),
        churn::NAME => churn::record(first, last),
        _ => return Err(format!("{name} records no digests")),
    };
    for (name, seed, digest) in records {
        println!("{name} {seed} {digest:016x}");
    }
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("--record") {
        return match record(&args[1..]) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("{e}");
                ExitCode::FAILURE
            }
        };
    }
    let opts = match parse(&args) {
        Ok(opts) => opts,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::FAILURE;
        }
    };
    let run: fn(&Opts) -> Outcome = match opts.workload.as_str() {
        walk::NAME => walk::run,
        churn::NAME => churn::run,
        "serve_mixed" => serve::run,
        other => {
            eprintln!("unknown workload `{other}`\n{USAGE}");
            return ExitCode::FAILURE;
        }
    };
    let outcome = run(&opts);
    println!("{}", outcome.result_line());
    if outcome.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
