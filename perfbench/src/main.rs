//! Steady-state benchmark of the STTSV drivers.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` prints the end-to-end metrics of one workload; `--trace 1`
//! prints its per-layer metrics from a separate traced run. The last line
//! of standard output is one JSON object with the keys `correct`,
//! `attempted`, `failed` and `metrics`. See `README.md` for the workloads
//! and what each metric isolates.

mod e2e;
mod host;
mod layers;
mod rankloop;
mod report;
mod spans;
mod spec;
mod sys;

use report::Tally;
use std::process::ExitCode;

struct Args {
    workload: &'static spec::Spec,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn usage(msg: &str) -> ExitCode {
    let names: Vec<&str> = spec::SPECS.iter().map(|s| s.name).collect();
    eprintln!("perfbench: {msg}");
    eprintln!(
        "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
        names.join("|")
    );
    ExitCode::from(2)
}

fn parse(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 0u64, 10.0f64, false);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(spec::spec(&value).ok_or_else(|| format!("unknown workload {value:?}"))?)
            }
            "--seed" => seed = value.parse().map_err(|_| bad)?,
            "--seconds" => seconds = value.parse().map_err(|_| bad)?,
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    Ok(Args { workload: workload.ok_or("--workload is required")?, seed, seconds, trace })
}

fn main() -> ExitCode {
    let args = match parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(msg) => return usage(&msg),
    };
    let spec = args.workload;
    let mut tally = Tally::default();
    let Some(prep) = e2e::prepare(spec, args.seed, &mut tally) else {
        eprintln!("perfbench: {}: the reference call failed; no metrics", spec.name);
        return ExitCode::FAILURE;
    };
    eprintln!(
        "perfbench: {} n={} seed={} ({} input draws), reference call of {} vectors",
        spec.name, spec.n, args.seed, prep.inputs.draws, prep.reference.vectors
    );
    let (mut metrics, checks_ok) = if args.trace {
        layers::run(&prep, args.seconds, &mut tally)
    } else {
        (e2e::run(&prep, args.seconds, &mut tally), true)
    };
    prep.gate(&mut tally);
    if !args.trace {
        metrics.push(e2e::ok_frac(&tally));
    }
    let correct = checks_ok && tally.failed == 0;
    report::emit(spec.name, &metrics, &tally, correct);
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
