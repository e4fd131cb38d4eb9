#![warn(missing_docs)]
//! Communication-optimal parallel STTSV via tetrahedral block partitioning —
//! the reproduction of the paper's primary contribution.
//!
//! The pipeline mirrors Sections 6–7 of the paper:
//!
//! 1. [`tetra`] — tetrahedral blocks `TB₃(R)` and the classification of
//!    lower-tetrahedron blocks into off-diagonal, non-central diagonal and
//!    central diagonal;
//! 2. [`partition`] — the full data distribution: `R_p` from a Steiner
//!    system, `N_p` via `q` disjoint matchings (Corollary 6.7), `D_p` via a
//!    Hall matching, the row-block requirement sets `Q_i`, and the vector
//!    shard layout;
//! 3. [`blocks`] — per-rank owned tensor storage (extracted once, never
//!    communicated — the owner-compute rule) and the local ternary-
//!    multiplication kernels;
//! 4. [`schedule`] — the point-to-point communication schedule obtained by
//!    edge-coloring the processor sharing graph (Lemma 7.1 / Theorem 7.2 /
//!    Figure 1);
//! 5. [`algorithm5`] — the parallel STTSV algorithm itself, runnable in
//!    padded All-to-All mode (§7.2.2 collective variant, 2× leading term)
//!    or scheduled point-to-point mode (exactly the lower bound's leading
//!    term);
//! 6. [`bounds`] — the closed-form lower bound (Theorem 5.2) and cost
//!    formulas (§7.1, §7.2) every experiment compares against;
//! 7. [`baselines`] — 1-D row-partitioned and 3-D cubic non-symmetric
//!    STTSV algorithms for the comparison experiments;
//! 8. [`hopm`] — the higher-order power method running on distributed
//!    vectors with the communication-optimal kernel inside.

pub mod ablation;
pub mod algorithm5;
pub mod baselines;
pub mod blocks;
pub mod bounds;
pub mod geometry;
pub mod hopm;
pub mod mttkrp;
pub mod partition;
pub mod plan;
pub mod scatter;
pub mod schedule;
pub mod serve;
pub mod tetra;
pub mod triangle;

pub use algorithm5::{
    parallel_sttsv, parallel_sttsv_multi_planned, parallel_sttsv_padded, parallel_sttsv_with,
    BatchSpans, InputError, Mode, RankContext, SttsvMultiRun, SttsvOptions, SttsvRun,
};
pub use partition::TetraPartition;
pub use plan::{BlockClass, OverlapState, PlanWorkspace, RankPlan};
pub use schedule::CommSchedule;
pub use serve::{
    parallel_sttsv_serve, parallel_sttsv_serve_chaos, parallel_sttsv_serve_chaos_with,
    parallel_sttsv_serve_pipelined, parallel_sttsv_serve_with, ChaosPolicy, RequestRecord,
    ServeError, ServeRequest, ServeRun,
};
