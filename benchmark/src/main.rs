//! The command line of the study benchmark; see the library's docs.

use bsky_benchmark::{child, compare, contract, harness, surface, workloads};
use std::process::ExitCode;

const USAGE: &str =
    "usage: bsky-benchmark bench --workload NAME --seed N --seconds N --trace 0|1 [--quick]
       bsky-benchmark run [--seed N] [--runs N] [--quick]
       bsky-benchmark compare A.json B.json
       bsky-benchmark run-one --workload NAME --phase study|traced|stream|tape --seed N [--quick]";

/// The default seed of `run`; the driver passes its own to `bench`.
const DEFAULT_SEED: u64 = 7;
/// Timed runs per workload in `run`, after one discarded warm-up.
const DEFAULT_TIMED_RUNS: usize = 5;

struct Args {
    flags: Vec<(String, String)>,
    quick: bool,
    positional: Vec<String>,
}

impl Args {
    fn parse(raw: &[String]) -> Result<Args, String> {
        let mut args = Args {
            flags: Vec::new(),
            quick: false,
            positional: Vec::new(),
        };
        let mut iter = raw.iter();
        while let Some(arg) = iter.next() {
            match arg.as_str() {
                "--quick" => args.quick = true,
                flag if flag.starts_with("--") => {
                    let value = iter.next().ok_or_else(|| format!("{flag} needs a value"))?;
                    args.flags.push((flag.to_string(), value.clone()));
                }
                _ => args.positional.push(arg.clone()),
            }
        }
        Ok(args)
    }

    fn text(&self, flag: &str) -> Option<&str> {
        self.flags
            .iter()
            .find(|(name, _)| name == flag)
            .map(|(_, value)| value.as_str())
    }

    fn number(&self, flag: &str) -> Result<Option<u64>, String> {
        self.text(flag)
            .map(|value| {
                value
                    .parse()
                    .map_err(|_| format!("{flag} takes a whole number, not {value:?}"))
            })
            .transpose()
    }

    fn required(&self, flag: &str) -> Result<u64, String> {
        self.number(flag)?
            .ok_or_else(|| format!("{flag} is required"))
    }

    fn workload(&self) -> Result<&'static workloads::Workload, String> {
        let name = self.text("--workload").ok_or("--workload is required")?;
        workloads::find(name).ok_or_else(|| format!("no workload named {name:?}"))
    }
}

fn read_results(path: &str) -> Result<surface::Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
    surface::Json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

/// `Ok(true)` when everything ran and every check passed.
fn dispatch(command: &str, args: &Args) -> Result<bool, String> {
    match command {
        "bench" => {
            let trace = match args.required("--trace")? {
                0 => false,
                1 => true,
                other => return Err(format!("--trace takes 0 or 1, not {other}")),
            };
            // A result was printed: the driver reads `correct` from it.
            harness::bench(
                args.workload()?,
                args.required("--seed")?,
                args.required("--seconds")?,
                trace,
                args.quick,
            )
            .map(|_correct| true)
        }
        "run" => {
            let quick = args.quick;
            let timed = match args.number("--runs")? {
                Some(runs) => runs.max(1) as usize,
                None if quick => 1,
                None => DEFAULT_TIMED_RUNS,
            };
            let seed = args.number("--seed")?.unwrap_or(DEFAULT_SEED);
            harness::run_all(seed, quick, timed)
        }
        "compare" => {
            let [a, b] = args.positional.as_slice() else {
                return Err("compare takes two results files".into());
            };
            let rows = compare::compare(
                &read_results(a)?,
                &read_results(b)?,
                &contract::Contract::load()?,
            )?;
            let count = |verdict| rows.iter().filter(|row| row.verdict == verdict).count();
            let (worse, unresolved) = (
                count(compare::Verdict::Worse),
                count(compare::Verdict::Unresolved),
            );
            println!(
                "\n{worse} worse, {unresolved} unresolved, {} rows",
                rows.len()
            );
            for row in rows
                .iter()
                .filter(|row| row.verdict == compare::Verdict::Worse)
            {
                println!("worse: {} on {}", row.metric, row.workload);
            }
            Ok(worse == 0)
        }
        "run-one" => {
            let phase = args
                .text("--phase")
                .and_then(child::Phase::parse)
                .ok_or("--phase takes study, traced, stream or tape")?;
            let result = child::run(
                args.workload()?,
                phase,
                args.required("--seed")?,
                args.quick,
            )?;
            println!("{}", harness::one_line(&result));
            Ok(true)
        }
        other => Err(format!("unknown command {other:?}\n{USAGE}")),
    }
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let Some((command, rest)) = raw.split_first() else {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    };
    match Args::parse(rest).and_then(|args| dispatch(command, &args)) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(message) => {
            eprintln!("bsky-benchmark: {message}");
            ExitCode::from(2)
        }
    }
}
