#![warn(missing_docs)]
//! Observability for the simulated message-passing machine: phase-scoped
//! spans, a metrics registry, the P×P communication matrix, schedule-step
//! occupancy, measured latency histograms and Perfetto-loadable trace
//! export.
//!
//! The `symtensor-mpsim` runtime counts every word on the send/recv hot
//! path and records one stream of timestamped, phase-, round- and
//! request-annotated [`CommEvent`]s per rank — a bounded flight window by
//! default, the complete run when traced. This crate turns those raw logs
//! into things a person can look at, every one derived from the same
//! events:
//!
//! * [`span`] — reconstructs the tree of [`Comm::with_phase`] regions as
//!   [`span::PhaseSpan`]s whose cost deltas are *exact* (snapshot
//!   subtraction, not sampling), and aggregates per-phase statistics that
//!   partition the run's total traffic.
//! * [`metrics`] — a thread-safe counters/gauges/histograms registry with
//!   power-of-two buckets; [`metrics::MetricsRegistry::record_run`] ingests
//!   a whole run including the per-message word-size histogram.
//! * [`matrix`] — the P×P words/messages matrix, whose row and column
//!   marginals must [reconcile](matrix::CommMatrix::reconcile) exactly with
//!   the hot-path [`CostReport`] counters.
//! * [`occupancy`] — per-round sender/receiver utilization of
//!   round-annotated schedules, checked against the paper's
//!   `q³/2 + 3q²/2 − 1` step bound.
//! * [`chrome`] — Chrome trace-event JSON export (one track per rank,
//!   phases as duration events, sends/recvs/faults/alerts as instants)
//!   loadable in Perfetto.
//! * [`flight`] — the `symtensor-flight-v1` window export and the
//!   post-mortem crash dump, whose embedded Chrome trace is [`chrome`]
//!   over the crashed run's logs.
//! * [`json`] — the minimal JSON value/serializer/parser the exporters are
//!   built on (the build environment is offline; no `serde_json`).
//!
//! Everything here consumes the *output* of a run ([`Universe::run_traced`]
//! returns `(results, CostReport, Vec<Vec<CommEvent>>)`); nothing in this
//! crate runs on the communication hot path, so enabling observability
//! cannot change the measured costs.
//!
//! [`Comm::with_phase`]: symtensor_mpsim::Comm::with_phase
//! [`Universe::run_traced`]: symtensor_mpsim::Universe::run_traced

pub mod chrome;
pub mod flight;
pub mod histogram;
pub mod json;
pub mod matrix;
pub mod metrics;
pub mod occupancy;
pub mod regress;
pub mod schema;
pub mod slo;
pub mod span;
pub mod telemetry;

pub use chrome::{
    chrome_trace, chrome_trace_multi, chrome_trace_string, chrome_trace_with_profile,
};
pub use flight::{flight_json, postmortem_json, reconcile_postmortem};
pub use histogram::{histogram_json, Histogram, ProfileHistograms};
pub use matrix::CommMatrix;
pub use metrics::MetricsRegistry;
pub use occupancy::{spherical_step_bound, OccupancyReport};
pub use regress::{parse_snapshot, BenchKey, BenchRecord, RegressionReport};
pub use schema::{validate, ArtifactKind};
pub use slo::{quantile_cell, Exemplar, ExemplarHistogram, RequestLatency, SloReport};
pub use span::{
    counter_stats, phase_stats, phase_stats_by_name, spans, CounterStats, PhaseSpan, PhaseStats,
};
pub use telemetry::telemetry_json;

use symtensor_mpsim::{CommEvent, CostReport};

/// Everything observable about one traced run, bundled for export.
pub struct RunObservation {
    /// The exact per-rank cost counters.
    pub report: CostReport,
    /// Per-rank event logs.
    pub traces: Vec<Vec<CommEvent>>,
}

impl RunObservation {
    /// Bundles a report and its traces.
    pub fn new(report: CostReport, traces: Vec<Vec<CommEvent>>) -> Self {
        RunObservation { report, traces }
    }

    /// The P×P communication matrix (validated against the report).
    ///
    /// # Panics
    /// Panics if the trace-derived marginals disagree with the hot-path
    /// counters — that would mean the tracer dropped events.
    pub fn comm_matrix(&self) -> CommMatrix {
        let m = CommMatrix::from_traces(&self.traces);
        if let Err(e) = m.reconcile(&self.report) {
            panic!("trace/counter mismatch: {e}");
        }
        m
    }

    /// Flat list of completed phase spans across ranks.
    pub fn spans(&self) -> Vec<PhaseSpan> {
        spans(&self.traces)
    }

    /// Schedule-round occupancy.
    pub fn occupancy(&self) -> OccupancyReport {
        OccupancyReport::from_traces(&self.traces)
    }

    /// Chrome trace-event JSON document.
    pub fn chrome_trace(&self) -> json::Value {
        chrome_trace(&self.traces)
    }

    /// Latency/profile histograms (round-step span, per-message transit,
    /// message sizes) from send/recv matching.
    pub fn histograms(&self) -> ProfileHistograms {
        ProfileHistograms::from_traces(&self.traces)
    }

    /// Chrome trace with the profile counter tracks included.
    pub fn chrome_trace_with_profile(&self) -> json::Value {
        chrome_trace_with_profile(&self.traces)
    }

    /// A metrics registry pre-populated from this run (cost counters,
    /// message-size histogram, per-round word volumes, per-phase words).
    pub fn metrics(&self) -> MetricsRegistry {
        let metrics = MetricsRegistry::new();
        metrics.record_run(&self.report, &self.traces);
        for (name, stats) in phase_stats(&self.spans()) {
            metrics.counter_add(&format!("phase.{name}.words_sent"), stats.total_cost.words_sent);
            metrics.counter_add(&format!("phase.{name}.words_recv"), stats.total_cost.words_recv);
            metrics.counter_add(&format!("phase.{name}.spans"), stats.count);
            metrics.gauge_set(&format!("phase.{name}.max_bandwidth"), stats.max_bandwidth as f64);
        }
        metrics
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use symtensor_mpsim::Universe;

    #[test]
    fn observation_bundle_end_to_end() {
        let (_, report, traces) = Universe::new(3).run_traced(|comm| {
            comm.with_phase("shift", || {
                let next = (comm.rank() + 1) % comm.size();
                let prev = (comm.rank() + comm.size() - 1) % comm.size();
                comm.annotate_round(0);
                comm.send(next, 0, vec![0.0; 3]);
                comm.recv(prev, 0).unwrap();
                comm.clear_round();
            });
        });
        let obs = RunObservation::new(report, traces);
        let m = obs.comm_matrix();
        assert_eq!(m.total_words(), obs.report.total_words_sent());
        assert_eq!(obs.spans().len(), 3);
        assert_eq!(obs.occupancy().num_rounds(), 1);
        let metrics = obs.metrics();
        assert_eq!(metrics.counter("phase.shift.words_sent"), 9);
        // Per-phase words partition the run's totals exactly.
        assert_eq!(metrics.counter("phase.shift.words_sent"), obs.report.total_words_sent());
        let doc = obs.chrome_trace();
        assert!(doc.get("traceEvents").unwrap().as_array().unwrap().len() >= 3);
    }
}
