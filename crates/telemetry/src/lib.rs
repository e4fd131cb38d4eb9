//! Live metrics plane for the symtensor runtime.
//!
//! Every observability layer before this one (trace spans, the latency
//! histograms, the flight recorder) is post-hoc: you learn a rank straggled
//! or an SLO burned only after the run ends. This crate is the *live*
//! plane: ranks publish into per-rank [`TelemetryCell`]s, each behind its
//! own lock, while a [`Scraper`] samples the whole cluster at a
//! configurable interval, reconciling what it sees against the paper's
//! closed-form budgets in real time.
//!
//! Pieces:
//!
//! - [`TelemetryCell`] — one per rank plus one for the serving driver:
//!   per-phase word/message counters, named gauges and rolling-window
//!   histograms under one lock. The owning thread writes, a scrape takes
//!   the lock for one copy, so a snapshot is always consistent.
//! - [`Histogram`] — the workspace's one power-of-two latency histogram
//!   (`symtensor-obs` re-exports it for its post-hoc reports).
//! - [`RollingHistogram`] — the same buckets over `SLICES` time slices,
//!   so recent windows can be read separately from the whole history: the
//!   raw material for multi-window burn rates. A window reads out as a
//!   [`Histogram`].
//! - [`TelemetryPlane`] — the shared registry (phase/gauge/histogram
//!   names interned to slot indices), the cells, and the alert log.
//! - [`Scraper`] — samples all cells into [`ClusterSnapshot`]s with
//!   derived gauges (budget ratio vs `2·scheduled_words_per_vector`,
//!   straggler λ, serve queue state).
//! - [`SloBurnRate`] — multi-window burn-rate evaluator (fast-burn short
//!   window AND sustained long window) raising [`SloAlert`]s that ranks
//!   also stamp into their flight recorders.
//! - [`prometheus_text`] / [`render_table`] — Prometheus text exposition
//!   and the plain-text rank×phase table behind the `monitor` binary.
//!
//! The crate is dependency-free (std only) and knows nothing about the
//! simulator; `symtensor-mpsim` and `symtensor-parallel` publish into it.

pub mod cell;
pub mod expose;
pub mod histogram;
pub mod plane;
pub mod rolling;
pub mod scrape;
pub mod slo;

pub use cell::{CellSnapshot, GaugeSnapshot, HistSnapshot, PhaseSnapshot, TelemetryCell};
pub use expose::{prometheus_text, render_table};
pub use histogram::{bucket_index, bucket_upper_bound, Histogram};
pub use plane::{PlaneConfig, SloAlert, TelemetryPlane, UNPHASED};
pub use rolling::{RollingHistogram, BUCKETS, SLICES};
pub use scrape::{
    sample_plane, ClusterSnapshot, DerivedGauges, ScrapeConfig, Scraper, TelemetrySeries,
};
pub use slo::SloBurnRate;

use std::sync::{Mutex, MutexGuard, PoisonError};

/// Takes `m`'s lock, recovered if poisoned: every critical section in
/// this crate leaves its data consistent between any two statements, so
/// a panicked holder leaves nothing half-written that matters.
pub(crate) fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Conventional metric names shared by the publishers (mpsim's `Comm`,
/// the serve loop) and the consumers
/// (scraper derived gauges, SLO evaluator, exposition). Using the
/// constants keeps publisher and consumer agreeing on interned slots.
pub mod keys {
    /// Serve gauge: requests admitted but not yet completed.
    pub const QUEUE_DEPTH: &str = "serve:queue_depth";
    /// Serve gauge: current batch fill as a percentage of `batch_cap`.
    pub const BATCH_OCCUPANCY_PCT: &str = "serve:batch_occupancy_pct";
    /// Serve gauge (monotone): chaos-serve retry attempts so far.
    pub const RETRIES: &str = "serve:retries";
    /// Serve gauge (monotone): requests completed on the degraded
    /// sequential fallback.
    pub const DEGRADED: &str = "serve:degraded";
    /// Serve gauge (monotone): vectors fully served (for budget ratios).
    pub const VECTORS_DONE: &str = "serve:vectors_done";
    /// Serve gauge (monotone): requests completed.
    pub const REQUESTS_DONE: &str = "serve:requests_done";
    /// Per-rank gauge: flight-recorder self-measured overhead. Published
    /// from the recorder's monotone non-negative counter, so this can
    /// never go negative even on coarse clocks.
    pub const FLIGHT_OVERHEAD_NS: &str = "flight:overhead_ns";
    /// Serve histogram: end-to-end request latency.
    pub const E2E_NS: &str = "serve:e2e_ns";
    /// Serve histogram: request queue wait.
    pub const QUEUE_WAIT_NS: &str = "serve:queue_wait_ns";
}
