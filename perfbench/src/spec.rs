//! The workloads: their fixed sizes, seeded input generation, the public
//! driver call each one times, and the checks every call must pass.

use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};
use symtensor_core::generate::random_symmetric;
use symtensor_core::hopm::{shifted_hopm, HopmOptions, HopmResult};
use symtensor_core::seq::{sttsv_sym, sym_ternary_mults};
use symtensor_core::SymTensor3;
use symtensor_mpsim::CostReport;
use symtensor_parallel::bounds::scheduled_words_per_vector;
use symtensor_parallel::hopm::parallel_shifted_hopm_planned;
use symtensor_parallel::{
    parallel_sttsv_multi_planned, parallel_sttsv_serve, parallel_sttsv_serve_pipelined, Mode,
    ServeRequest, TetraPartition,
};
use symtensor_steiner::spherical;

/// Every workload runs on the smallest spherical system, `q = 2`.
pub const Q: usize = 2;
/// Ranks of the `q = 2` system: `q(q² + 1)`.
pub const P: usize = 10;
/// Shift of the eigen-solve.
pub const ALPHA: f64 = 5.0;
/// Convergence tolerance of the eigen-solve.
pub const TOL: f64 = 1e-9;
/// Every solve input converges in exactly this many sequential iterations.
pub const SOLVE_ITERS: usize = 280;
/// Iteration cap of the timed parallel solve.
const SOLVE_MAX_ITERS: usize = 4 * SOLVE_ITERS;
/// Iteration cap of a candidate trajectory while drawing solve inputs.
const SOLVE_DRAW_CAP: usize = 1500;
/// Requests per serving input checked against the sequential kernel.
const ORACLE_SAMPLE: usize = 3;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// `parallel_shifted_hopm_planned` to convergence.
    Solve,
    /// `parallel_sttsv_serve`, one batch after another.
    Stream,
    /// `parallel_sttsv_serve_pipelined`, double-buffered batches.
    Pipeline,
}

pub struct Spec {
    pub name: &'static str,
    pub kind: Kind,
    /// Tensor dimension; a multiple of 30 so that `q(q+1) | n/(q²+1)`.
    pub n: usize,
    /// Vectors per exchange: the serving batch cap, 1 for the solve.
    pub batch: usize,
    /// Requests per driver call (serving workloads).
    pub requests: usize,
}

pub const SPECS: [Spec; 3] = [
    Spec { name: "solve-q2", kind: Kind::Solve, n: 60, batch: 1, requests: 0 },
    Spec { name: "stream-q2-b8", kind: Kind::Stream, n: 480, batch: 8, requests: 64 },
    Spec { name: "pipeline-q2-b8", kind: Kind::Pipeline, n: 120, batch: 8, requests: 512 },
];

pub fn spec(name: &str) -> Option<&'static Spec> {
    SPECS.iter().find(|s| s.name == name)
}

impl Spec {
    /// Per-rank words per vector the paper's schedule sends in both
    /// exchange phases together: `2·scheduled_words_per_vector`.
    pub fn words_per_vector(&self) -> u64 {
        2 * scheduled_words_per_vector(self.n, Q) as u64
    }

    /// Ternary multiplications of one STTSV, summed over ranks.
    pub fn ternary_per_vector(&self) -> u64 {
        sym_ternary_mults(self.n)
    }
}

pub fn partition(n: usize) -> TetraPartition {
    TetraPartition::new(spherical(Q as u64), n).expect("n is a multiple of 30")
}

/// What a workload's driver sees: the tensor and the vectors.
pub struct Inputs {
    pub tensor: SymTensor3,
    /// Solve: the start vector. Serving: one vector per request.
    pub xs: Vec<Vec<f64>>,
    /// Solve: the sequential solution the parallel one is checked against.
    pub oracle: Option<HopmResult>,
    /// Candidate inputs drawn before one qualified (solve).
    pub draws: usize,
}

/// Draws the inputs of `spec` from `seed`; the same seed gives the same
/// inputs.
///
/// A solve input is a random symmetric tensor and a start vector from
/// which the sequential shifted power method converges in exactly
/// [`SOLVE_ITERS`] iterations, so every seed times the same work. The
/// start vector is a point on a random start's own trajectory, taken
/// [`SOLVE_ITERS`] steps before that trajectory converges.
pub fn generate(spec: &Spec, seed: u64) -> Inputs {
    let n = spec.n;
    let mut master = StdRng::seed_from_u64(seed ^ ((spec.kind as u64) << 56));
    let vector =
        |rng: &mut StdRng| -> Vec<f64> { (0..n).map(|_| rng.gen::<f64>() - 0.5).collect() };
    match spec.kind {
        Kind::Solve => {
            let solve = |x: &[f64], tensor: &SymTensor3, max_iters| {
                shifted_hopm(tensor, x, ALPHA, HopmOptions { tol: TOL, max_iters })
            };
            for draw in 1.. {
                let mut rng = StdRng::seed_from_u64(master.next_u64());
                let tensor = random_symmetric(n, &mut rng);
                let start = vector(&mut rng);
                let full = solve(&start, &tensor, SOLVE_DRAW_CAP);
                if !full.converged || full.iters <= SOLVE_ITERS + 1 {
                    continue;
                }
                // Re-normalising the later point can move convergence by
                // one step, so the neighbouring points are tried as well.
                let skip = full.iters - SOLVE_ITERS;
                for skip in [skip, skip - 1, skip + 1] {
                    let x0 = solve(&start, &tensor, skip).x;
                    let oracle = solve(&x0, &tensor, SOLVE_ITERS);
                    if oracle.converged && oracle.iters == SOLVE_ITERS {
                        return Inputs { tensor, xs: vec![x0], oracle: Some(oracle), draws: draw };
                    }
                }
            }
            unreachable!("the draw loop only exits by returning")
        }
        Kind::Stream | Kind::Pipeline => {
            let tensor = random_symmetric(n, &mut master);
            let xs = (0..spec.requests).map(|_| vector(&mut master)).collect();
            Inputs { tensor, xs, oracle: None, draws: 1 }
        }
    }
}

/// One driver call's result.
#[derive(Clone, Debug)]
pub struct CallOut {
    /// STTSV contractions done: solve iterations or served requests.
    pub vectors: usize,
    /// Solve: the eigenvector. Serving: one output per request.
    pub ys: Vec<Vec<f64>>,
    pub report: CostReport,
    pub ternary: u64,
    /// Solve only: `(λ, converged)`.
    pub eigen: Option<(f64, bool)>,
}

/// Calls the workload's public driver. `limit` caps the work at one
/// vector (setup measurement): one solver iteration or one request.
pub fn call(spec: &Spec, inputs: &Inputs, part: &TetraPartition, limit: bool) -> CallOut {
    match spec.kind {
        Kind::Solve => {
            let max_iters = if limit { 1 } else { SOLVE_MAX_ITERS };
            let opts = HopmOptions { tol: TOL, max_iters };
            let (res, report) = parallel_shifted_hopm_planned(
                &inputs.tensor,
                part,
                &inputs.xs[0],
                ALPHA,
                opts,
                Mode::Scheduled,
                1,
            );
            CallOut {
                vectors: res.iters,
                ternary: res.ops.ternary_mults,
                eigen: Some((res.lambda, res.converged)),
                ys: vec![res.x],
                report,
            }
        }
        Kind::Stream | Kind::Pipeline => {
            let count = if limit { 1 } else { inputs.xs.len() };
            let requests = requests(&inputs.xs[..count]);
            let serve = if spec.kind == Kind::Stream {
                parallel_sttsv_serve
            } else {
                parallel_sttsv_serve_pipelined
            };
            let run = serve(&inputs.tensor, part, &requests, Mode::Scheduled, 1, spec.batch)
                .expect("batch cap is positive");
            CallOut {
                vectors: count,
                ternary: run.ternary_per_rank.iter().sum(),
                eigen: None,
                ys: run.ys,
                report: run.report,
            }
        }
    }
}

fn requests(xs: &[Vec<f64>]) -> Vec<ServeRequest> {
    xs.iter().enumerate().map(|(i, x)| ServeRequest::new(i as u64, x.clone())).collect()
}

/// Runs `f`, turning a panic into an error message.
pub fn guarded<R>(f: impl FnOnce() -> R) -> Result<R, String> {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)).map_err(|payload| {
        payload
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_else(|| "panic".to_string())
    })
}

/// `(max words, max messages)` sent by any rank over a call, the solver's
/// collectives included.
pub fn cost(out: &CallOut) -> (u64, u64) {
    let per = &out.report.per_rank;
    (
        per.iter().map(|r| r.words_sent).max().unwrap_or(0),
        per.iter().map(|r| r.msgs_sent).max().unwrap_or(0),
    )
}

/// Checks a repeat call against the reference call: same outputs to the
/// bit, same exact costs.
pub fn same_as(reference: &CallOut, out: &CallOut) -> Result<(), String> {
    let bits = |ys: &[Vec<f64>]| -> Vec<u64> { ys.iter().flatten().map(|v| v.to_bits()).collect() };
    if bits(&out.ys) != bits(&reference.ys) {
        return Err("outputs differ from the reference call".into());
    }
    if out.report != reference.report
        || out.vectors != reference.vectors
        || out.ternary != reference.ternary
    {
        return Err("exact costs differ from the reference call".into());
    }
    if out.eigen.map(|(l, c)| (l.to_bits(), c)) != reference.eigen.map(|(l, c)| (l.to_bits(), c)) {
        return Err("eigenvalue differs from the reference call".into());
    }
    Ok(())
}

/// The correctness gate on a reference call, outside any timed region.
///
/// Every call: exactly `n²(n+1)/2` ternary multiplications per vector.
/// Solve: converged, and λ within 1e-8 of the sequential solver.
/// Serving: outputs bit-identical to `parallel_sttsv_multi_planned` over
/// the same batches, and a sample of requests within 1e-12 (relative,
/// max-norm) of the sequential `sttsv_sym`.
pub fn gate(
    spec: &Spec,
    inputs: &Inputs,
    part: &TetraPartition,
    out: &CallOut,
) -> Result<(), String> {
    let ternary = spec.ternary_per_vector() * out.vectors as u64;
    if out.ternary != ternary {
        return Err(format!(
            "{} ternary multiplications for {} vectors, expected {ternary}",
            out.ternary, out.vectors
        ));
    }
    match spec.kind {
        Kind::Solve => {
            let oracle = inputs.oracle.as_ref().expect("solve inputs carry the oracle");
            let (lambda, converged) = out.eigen.expect("solve calls report λ");
            if !converged {
                return Err(format!("solve did not converge in {} iterations", out.vectors));
            }
            if (lambda - oracle.lambda).abs() > 1e-8 {
                return Err(format!(
                    "λ = {lambda} but the sequential solver gives {}",
                    oracle.lambda
                ));
            }
            Ok(())
        }
        Kind::Stream | Kind::Pipeline => {
            for (k, batch) in inputs.xs.chunks(spec.batch).enumerate() {
                let multi =
                    parallel_sttsv_multi_planned(&inputs.tensor, part, batch, Mode::Scheduled, 1);
                let served = &out.ys[k * spec.batch..k * spec.batch + batch.len()];
                for (a, b) in multi.ys.iter().zip(served) {
                    if a.iter().zip(b).any(|(x, y)| x.to_bits() != y.to_bits()) {
                        return Err(format!(
                            "batch {k}: served output differs from the batched driver"
                        ));
                    }
                }
            }
            let last = inputs.xs.len() - 1;
            for i in (0..ORACLE_SAMPLE).map(|s| s * last / (ORACLE_SAMPLE - 1)) {
                let (want, _) = sttsv_sym(&inputs.tensor, &inputs.xs[i]);
                let scale = want.iter().fold(0.0f64, |m, v| m.max(v.abs()));
                let err =
                    want.iter().zip(&out.ys[i]).fold(0.0f64, |m, (a, b)| m.max((a - b).abs()));
                if err > 1e-12 * scale {
                    return Err(format!(
                        "request {i}: relative error {} vs sttsv_sym",
                        err / scale
                    ));
                }
            }
            Ok(())
        }
    }
}
