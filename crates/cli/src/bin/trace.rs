//! One-shot observability driver: runs a single traced Algorithm-5 STTSV
//! and prints/exports everything `symtensor-obs` can see about it.
//!
//! Usage: `trace [--q Q] [--scale S] [--mode scheduled|padded|sparse]
//!               [--trace out.json] [--metrics out.json] [--flight out.json]`
//!
//! Defaults: `--q 3`, `--scale 1`, `--mode scheduled`. The printed report
//! names the batch-kernel instance the ranks ran (`avx512f`, `avx2` or
//! `baseline`, all bit-identical) and otherwise holds only measured
//! figures and exact counts: the per-phase cost breakdown (which
//! partitions the run's total traffic exactly), the P×P communication
//! matrix marginals, the round-occupancy check against the
//! paper's `q³/2 + 3q²/2 − 1` step bound, the bandwidth cost (in scheduled
//! mode asserted equal to `2·W_sched`, the closed-form per-vector word
//! count, ±0 words), and the measured round-step and receive-transit
//! latency quantiles. `--trace` writes a Perfetto-loadable Chrome trace
//! (open at `ui.perfetto.dev`), `--metrics` the flat metrics JSON,
//! `--flight` the per-rank flight-recorder window (`symtensor-flight-v1`).

use rand::rngs::StdRng;
use rand::SeedableRng;
use symtensor_cli::obsout::ObsSink;
use symtensor_core::generate::random_symmetric;
use symtensor_obs::occupancy::spherical_step_bound;
use symtensor_obs::{flight_json, phase_stats, quantile_cell, RunObservation};
use symtensor_parallel::blocks::kernel_isa;
use symtensor_parallel::schedule::spherical_round_count;
use symtensor_parallel::{
    bounds, parallel_sttsv_with, CommSchedule, Mode, SttsvOptions, TetraPartition,
};
use symtensor_steiner::spherical;

fn main() {
    let (sink, rest) = ObsSink::from_args(std::env::args().skip(1));
    let mut q = 3usize;
    let mut scale = 1usize;
    let mut mode = Mode::Scheduled;
    let mut flight_path: Option<String> = None;
    let mut iter = rest.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--q" => q = parse_num(iter.next(), "--q"),
            "--scale" => scale = parse_num(iter.next(), "--scale"),
            "--mode" => {
                mode = match iter.next().map(String::as_str) {
                    Some("scheduled") => Mode::Scheduled,
                    Some("padded") => Mode::AllToAllPadded,
                    Some("sparse") => Mode::AllToAllSparse,
                    other => usage(&format!("unknown --mode {other:?}")),
                }
            }
            "--flight" => {
                flight_path = Some(match iter.next() {
                    Some(path) => path.clone(),
                    None => usage("--flight requires an output path"),
                })
            }
            other => usage(&format!("unknown argument '{other}'")),
        }
    }
    if !(2..=5).contains(&q) {
        usage("--q must be in 2..=5 (simulated ranks = q(q²+1)(q+1)/2 threads)");
    }

    let p = bounds::spherical_procs(q);
    let n = (q * q + 1) * q * (q + 1) * scale;
    let mode_label = match mode {
        Mode::Scheduled => "scheduled",
        Mode::AllToAllPadded => "padded",
        Mode::AllToAllSparse => "sparse",
    };
    println!("== traced Algorithm-5 STTSV: q = {q}, P = {p}, n = {n}, mode = {mode_label} ==");
    println!("batch kernel: {}", kernel_isa());

    let part = TetraPartition::new(spherical(q as u64), n).unwrap();
    let mut rng = StdRng::seed_from_u64(4242);
    let tensor = random_symmetric(n, &mut rng);
    let x: Vec<f64> = (0..n).map(|i| (i as f64 * 0.01).sin()).collect();
    let opts = SttsvOptions { trace: true, ..SttsvOptions::new(mode) };
    let run = parallel_sttsv_with(&tensor, &part, &[x], opts).expect("inputs match the partition");
    let flight = run.flight;
    let obs = RunObservation::new(run.report.clone(), run.traces);

    // Per-phase breakdown (top-level spans partition the totals exactly).
    println!("\n-- per-phase cost breakdown --");
    println!(
        "{:<16} {:>6} {:>12} {:>12} {:>12} {:>10}",
        "phase", "spans", "words sent", "words recv", "max bw", "time (µs)"
    );
    let spans = obs.spans();
    let stats = phase_stats(&spans);
    let mut sent_sum = 0u64;
    for (name, s) in &stats {
        println!(
            "{:<16} {:>6} {:>12} {:>12} {:>12} {:>10.1}",
            name,
            s.count,
            s.total_cost.words_sent,
            s.total_cost.words_recv,
            s.max_bandwidth,
            s.total_ns as f64 / 1_000.0
        );
        sent_sum += s.total_cost.words_sent;
    }
    println!(
        "{:<16} {:>6} {:>12} {:>12}",
        "(total)",
        "",
        obs.report.total_words_sent(),
        obs.report.total_words_recv()
    );
    assert_eq!(sent_sum, obs.report.total_words_sent(), "phases must partition the total");

    // Comm matrix (validated against the hot-path counters).
    let matrix = obs.comm_matrix();
    println!("\n-- P×P communication matrix (words) --");
    if p <= 16 {
        print!("{}", matrix.render_text());
    } else {
        let max_row = (0..p).map(|s| matrix.row_words(s)).max().unwrap();
        let max_col = (0..p).map(|d| matrix.col_words(d)).max().unwrap();
        println!("P = {p} (matrix suppressed; marginals only)");
        println!("max row (sent by one rank)  = {max_row}");
        println!("max col (recv by one rank)  = {max_col}");
    }
    println!("matrix marginals reconcile with CostReport ✓");

    // Round occupancy vs the paper's step bound.
    let occ = obs.occupancy();
    println!("\n-- schedule-round occupancy --");
    if mode == Mode::Scheduled {
        let sched = CommSchedule::build(&part);
        println!(
            "rounds observed = {} | schedule = {} | bound q³/2+3q²/2−1 = {} | P−1 = {}",
            occ.num_rounds(),
            sched.num_rounds(),
            spherical_round_count(q),
            p - 1
        );
        println!(
            "mean sender utilization: observed {:.3} | planned {:.3}",
            occ.mean_sender_utilization(),
            sched.planned_utilization()
        );
        assert_eq!(occ.num_rounds() as u64, spherical_step_bound(q));
        assert!(occ.within_step_bound(q));
    } else {
        // All-to-All runs annotate each of their P−1 pairwise steps.
        println!(
            "rounds observed = {} | all-to-all steps P−1 = {} | {} unannotated words",
            occ.num_rounds(),
            p - 1,
            occ.unannotated_words
        );
        assert_eq!(occ.num_rounds(), p - 1, "all-to-all must annotate exactly P−1 steps");
        assert_eq!(occ.unannotated_words, 0, "every word must carry a round annotation");
    }

    let bandwidth = obs.report.bandwidth_cost();
    println!(
        "\nbandwidth cost = {bandwidth} words (lower bound {:.1})",
        bounds::lower_bound_words(n, p)
    );
    let w = bounds::scheduled_words_per_vector(n, q) as u64;
    if mode == Mode::Scheduled {
        assert_eq!(
            bandwidth,
            2 * w,
            "scheduled bandwidth cost must reconcile (±0 words) with 2·scheduled_words_per_vector"
        );
        println!("bandwidth cost reconciles with the closed form 2·W_sched = {} ✓", 2 * w);
    } else {
        println!("scheduled closed form would be 2·W_sched = {}", 2 * w);
    }

    // Measured latencies from send/recv matching (no model involved).
    let hists = obs.histograms();
    println!("\n-- measured latency --");
    for (label, h) in
        [("round-step ns:  ", &hists.round_step_ns), ("recv transit ns:", &hists.recv_wait_ns)]
    {
        println!(
            "{label} p50={} p90={} p99={} max={}",
            quantile_cell(h, 0.50),
            quantile_cell(h, 0.90),
            quantile_cell(h, 0.99),
            h.max
        );
    }

    if let Some(path) = &flight_path {
        let doc = flight_json(&flight);
        std::fs::write(path, doc.to_string_pretty()).unwrap_or_else(|e| {
            eprintln!("error: cannot write {path}: {e}");
            std::process::exit(1);
        });
        let recorded: u64 = flight.iter().map(|s| s.overhead.recorded).sum();
        let dropped: u64 = flight.iter().map(|s| s.overhead.dropped).sum();
        let overhead: u64 = flight.iter().map(|s| s.overhead.overhead_ns).sum();
        println!(
            "\n-- flight recorder --\n{} records across {} ranks ({} evicted from the rings), \
             self-overhead {} ns total\nwindow written to {path}",
            recorded,
            flight.len(),
            dropped,
            overhead
        );
    }

    sink.record(format!("trace q={q} n={n} {mode_label}"), obs);
    if sink.enabled() {
        println!();
        sink.flush();
    } else {
        println!(
            "\n(pass --trace out.json to export a Perfetto trace, --metrics m.json for metrics)"
        );
    }
}

fn parse_num(arg: Option<&String>, flag: &str) -> usize {
    match arg.and_then(|s| s.parse().ok()) {
        Some(v) => v,
        None => usage(&format!("{flag} requires a number")),
    }
}

fn usage(err: &str) -> ! {
    eprintln!("error: {err}");
    eprintln!(
        "usage: trace [--q Q] [--scale S] [--mode scheduled|padded|sparse] [--trace out.json] [--metrics out.json] [--flight out.json]"
    );
    std::process::exit(2);
}
