//! symtensor-check: correctness tooling for the workspace's lock-free
//! planes — the telemetry cell's seqlock, the rolling-histogram epochs,
//! the pool's chunk deque, and mpsim's abort flag.
//!
//! Three engines, one dependency-free crate:
//!
//! 1. **Schedule explorer** ([`model`]) — loom-style deterministic
//!    model checking: the [`sync`] shim turns every atomic/cell access
//!    into a scheduling point, and a DFS over recorded decision trails
//!    replays every interleaving (and every weak-memory read) of small
//!    two/three-thread models of each primitive, asserting their
//!    invariants in each one. State-hash pruning, preemption bounding,
//!    and an op budget keep exploration finite.
//! 2. **Race detector** ([`mem`]) — FastTrack-style vector clocks over
//!    the same executions flag any unsynchronized non-atomic access,
//!    and a **mutation harness** ([`mutate`]) weakens each annotated
//!    ordering one slot at a time to verify the checker actually
//!    catches the resulting bug — the tool's sensitivity is itself
//!    under test.
//! 3. **Source lint** ([`lint`]) — a line-oriented scanner enforcing
//!    the repo's concurrency-hygiene rules (ordering justifications, no
//!    panic paths in serving code, no raw atomics outside the façade,
//!    no stray clock reads in record paths).
//!
//! Results aggregate into a `symtensor-check-v1` artifact ([`report`])
//! that round-trips the shared `obs::schema::validate` contract.
//!
//! The production crates compile against [`sync`] under
//! `--cfg symtensor_check` (a rustflags cfg, not a cargo feature, so
//! feature unification can never leak the shim into release builds);
//! without the cfg they use `std::sync::atomic` directly and this crate
//! is inert.

pub mod lint;
pub mod mem;
pub mod model;
pub mod models;
pub mod mutate;
pub mod report;
pub mod sync;

pub use lint::{lint_workspace, Finding};
pub use model::{Config, Outcome, Violation};
pub use mutate::{sweep, MutationReport};
pub use report::CheckReport;
