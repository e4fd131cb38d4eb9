//! Parameter-sweep driver emitting JSON records for plotting/analysis:
//! measured communication, work and schedule data across `q` and `n`.
//!
//! Usage: `sweep [output.json] [--trace t.json] [--metrics m.json]`
//!
//! Writes a JSON array of records (defaults to stdout). With
//! `--trace`/`--metrics` every measured run is re-run traced and the
//! observability outputs (Perfetto trace, per-phase metrics, comm matrix,
//! round occupancy) are written alongside. Any other flag, or a second
//! positional argument, is a usage error (exit 2), reported before
//! anything runs.

use rand::rngs::StdRng;
use rand::SeedableRng;
use symtensor_cli::obsout::ObsSink;
use symtensor_core::generate::random_symmetric;
use symtensor_obs::json::Value;
use symtensor_obs::RunObservation;
use symtensor_parallel::baselines::{baseline_1d_words, baseline_3d_words};
use symtensor_parallel::schedule::spherical_round_count;
use symtensor_parallel::{bounds, parallel_sttsv_with, Mode, SttsvOptions, TetraPartition};
use symtensor_steiner::spherical;

fn main() {
    let (sink, rest) = ObsSink::from_args(std::env::args().skip(1));
    if let Some(flag) = rest.iter().find(|arg| arg.starts_with('-')) {
        usage(&format!("unknown flag '{flag}'"));
    }
    if let Some(extra) = rest.get(1) {
        usage(&format!("unexpected argument '{extra}'"));
    }
    let mut records: Vec<Value> = Vec::new();
    let mut rng = StdRng::seed_from_u64(2024);

    // Measured sweep: q ∈ {2, 3}, several scales, all three modes.
    for q in [2usize, 3] {
        let p = bounds::spherical_procs(q);
        let unit = (q * q + 1) * q * (q + 1);
        for scale in [1usize, 2, 4] {
            let n = unit * scale;
            let part = TetraPartition::new(spherical(q as u64), n).unwrap();
            let tensor = random_symmetric(n, &mut rng);
            let x: Vec<f64> = (0..n).map(|i| (i as f64 * 0.01).sin()).collect();
            for (label, mode) in [
                ("scheduled", Mode::Scheduled),
                ("alltoall_padded", Mode::AllToAllPadded),
                ("alltoall_sparse", Mode::AllToAllSparse),
            ] {
                let opts = SttsvOptions { trace: sink.enabled(), ..SttsvOptions::new(mode) };
                let run = parallel_sttsv_with(&tensor, &part, std::slice::from_ref(&x), opts)
                    .expect("inputs match the partition");
                if sink.enabled() {
                    sink.record(
                        format!("sweep q={q} n={n} {label}"),
                        RunObservation::new(run.report.clone(), run.traces()),
                    );
                }
                records.push(
                    Value::object()
                        .with("kind", "measured")
                        .with("q", q)
                        .with("P", p)
                        .with("n", n)
                        .with("mode", label)
                        .with("max_words", run.report.bandwidth_cost())
                        .with("total_words", run.report.total_words_sent())
                        .with("max_rounds", run.report.max_rounds())
                        .with("max_msgs", run.report.max_msgs_sent())
                        .with("lower_bound", bounds::lower_bound_words(n, p))
                        .with("max_ternary", *run.ternary_per_rank.iter().max().unwrap())
                        .with("ideal_ternary", bounds::comp_cost_leading(n, p)),
                );
            }
        }
    }

    // Model sweep: larger q via validated closed forms.
    for q in [4usize, 5, 7, 9, 11, 13] {
        let p = bounds::spherical_procs(q);
        let unit = (q * q + 1) * q * (q + 1);
        let n = unit * 4;
        let g = (p as f64).cbrt().round() as usize;
        records.push(
            Value::object()
                .with("kind", "model")
                .with("q", q)
                .with("P", p)
                .with("n", n)
                .with("scheduled_words", bounds::scheduled_words_total(n, q))
                .with("alltoall_words", bounds::alltoall_words_total(n, q))
                .with("lower_bound", bounds::lower_bound_words(n, p))
                .with("baseline_3d_words", baseline_3d_words(n, g))
                .with("baseline_1d_words", baseline_1d_words(n, p))
                .with("schedule_rounds", spherical_round_count(q)),
        );
    }

    // Continuous model sweep: the f64 closed-form twins evaluate the cost
    // model at dimensions the integer formulas reject (no divisibility by
    // (q²+1) / λ₁ required) — e.g. power-of-two n for plotting smooth
    // curves through the exact points above.
    for q in [2usize, 3, 5, 7] {
        let p = bounds::spherical_procs(q);
        for n in [1000usize, 4096, 100_000] {
            records.push(
                Value::object()
                    .with("kind", "model_f64")
                    .with("q", q)
                    .with("P", p)
                    .with("n", n)
                    .with(
                        "scheduled_words_per_vector",
                        bounds::scheduled_words_per_vector_f64(n, q),
                    )
                    .with("scheduled_words", bounds::scheduled_words_total_f64(n, q))
                    .with("alltoall_words", bounds::alltoall_words_total_f64(n, q))
                    .with("lower_bound", bounds::lower_bound_words(n, p)),
            );
        }
    }

    let count = records.len();
    let out = Value::Array(records).to_string_pretty();
    match rest.first() {
        Some(path) => {
            std::fs::write(path, &out).expect("write output file");
            eprintln!("wrote {count} records to {path}");
        }
        None => println!("{out}"),
    }
    sink.flush();
}

/// Prints `msg` and the usage line, and exits 2.
fn usage(msg: &str) -> ! {
    eprintln!("error: {msg}");
    eprintln!("usage: sweep [output.json] [--trace t.json] [--metrics m.json]");
    std::process::exit(2);
}
