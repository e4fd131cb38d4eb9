//! Inspection tool: builds the tetrahedral partition for a given `q` and
//! `n`, verifies every invariant and prints its statistics.
//!
//! Usage: `partition_info [q] [n]` (defaults: q = 3, n = padded minimal).
//! A `q` that is not a prime power, an `n` that is not a number, or a
//! third argument is a usage error (exit 2).

use symtensor_ff::is_prime_power;
use symtensor_parallel::schedule::spherical_round_count;
use symtensor_parallel::{bounds, CommSchedule, TetraPartition};
use symtensor_steiner::spherical;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if let Some(extra) = args.get(2) {
        usage(&format!("unexpected argument '{extra}'"));
    }
    let q: u64 = match args.first() {
        Some(s) => s.parse().unwrap_or_else(|_| usage(&format!("q must be a number, got '{s}'"))),
        None => 3,
    };
    if !is_prime_power(q) {
        usage(&format!("q must be a prime power, got {q}"));
    }
    let system = spherical(q);
    system.verify().expect("Steiner verification");
    let n_default = TetraPartition::padded_dim(&system, 1);
    let n: usize = match args.get(1) {
        Some(s) => s.parse().unwrap_or_else(|_| usage(&format!("n must be a number, got '{s}'"))),
        None => n_default,
    };

    let qq = q as usize;
    let part = match TetraPartition::new(system, n) {
        Ok(part) => part,
        Err(e) => {
            eprintln!("cannot partition n = {n} with q = {q}: {e}");
            eprintln!(
                "hint: n must be a multiple of m = {}; minimal exact n is {n_default}",
                qq * qq + 1
            );
            std::process::exit(2);
        }
    };
    part.verify().expect("partition invariants");

    let p = part.num_procs();
    println!("tetrahedral partition: q = {q} (prime power), n = {n}");
    println!("  processors P = q(q²+1)          = {p}");
    println!("  row blocks m = q²+1             = {}", part.num_row_blocks());
    println!("  block size b = n/m              = {}", part.block_size());
    println!("  λ₁ (procs per row block)        = {}", part.lambda1());
    println!("  λ₂ (procs per row-block pair)   = {}", part.lambda2());
    println!("  |R_p| = q+1                     = {}", part.r_set(0).len());
    println!("  |N_p| = q                       = {}", part.n_set(0).len());
    println!(
        "  central blocks assigned          = {} of {p} processors",
        (0..p).filter(|&r| part.d_set(r).is_some()).count()
    );
    let max_tensor = (0..p).map(|r| part.tensor_words(r)).max().unwrap();
    println!(
        "  tensor words/proc (max)          = {} (n³/6P = {:.0})",
        max_tensor,
        (n as f64).powi(3) / (6.0 * p as f64)
    );
    println!("  vector words/proc                = {}", part.vector_words(0));
    let max_work = (0..p).map(|r| part.ternary_mults(r)).max().unwrap();
    println!(
        "  ternary mults/proc (max)         = {} (n³/2P = {:.0})",
        max_work,
        bounds::comp_cost_leading(n, p)
    );
    println!();
    println!("communication per STTSV (words, send = receive per processor):");
    println!("  scheduled point-to-point         = {}", bounds::scheduled_words_total(n, qq));
    println!("  padded All-to-All                = {}", bounds::alltoall_words_total(n, qq));
    println!("  Theorem 5.2 lower bound          = {:.1}", bounds::lower_bound_words(n, p));
    let schedule = CommSchedule::build(&part);
    println!(
        "  schedule rounds                  = {} (formula {}, vs P−1 = {})",
        schedule.num_rounds(),
        spherical_round_count(qq),
        p - 1
    );
    println!();
    println!("all invariants verified.");
}

/// Prints `msg` and the usage line, and exits 2.
fn usage(msg: &str) -> ! {
    eprintln!("error: {msg}");
    eprintln!("usage: partition_info [q] [n]");
    std::process::exit(2);
}
