//! The shared telemetry plane: name registries, per-rank cells, and the
//! SLO alert log.

use crate::cell::TelemetryCell;
use crate::lock;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Phase slot 0: traffic recorded outside any `with_phase` scope. Also
/// the overflow slot when more distinct labels are registered than the
/// plane has capacity for.
pub const UNPHASED: &str = "(unphased)";

/// Interns `&'static str` names to dense slot indices. Registration is
/// rare (first time a label is seen — publishers cache the slot), so one
/// lock over the name list serves both resolution and enumeration.
struct Registry {
    names: Mutex<Vec<&'static str>>,
    capacity: usize,
}

impl Registry {
    fn new(capacity: usize) -> Self {
        Registry { names: Mutex::new(Vec::with_capacity(capacity)), capacity }
    }

    /// Slot for `name`, registering it on first sight. Returns slot 0
    /// when the registry is full — overflow traffic aggregates into the
    /// first slot rather than being dropped or panicking mid-run.
    fn resolve(&self, name: &'static str) -> usize {
        let mut names = lock(&self.names);
        if let Some(i) = names.iter().position(|&s| s == name) {
            return i;
        }
        if names.len() == self.capacity {
            return 0;
        }
        names.push(name);
        names.len() - 1
    }

    /// The registered names, in slot order.
    fn names(&self) -> Vec<&'static str> {
        lock(&self.names).clone()
    }
}

/// Sizing and windowing knobs for a [`TelemetryPlane`].
#[derive(Clone, Debug)]
pub struct PlaneConfig {
    /// Number of rank cells.
    pub ranks: usize,
    /// Distinct phase labels the plane can track (plus [`UNPHASED`]).
    pub max_phases: usize,
    /// Distinct gauge names.
    pub max_gauges: usize,
    /// Distinct histogram names.
    pub max_hists: usize,
    /// Rolling-histogram slice width in nanoseconds.
    pub slice_ns: u64,
}

impl PlaneConfig {
    /// Defaults for `ranks` ranks: 16 phases, 32 gauges, 8 histograms,
    /// 100 ms slices.
    pub fn new(ranks: usize) -> Self {
        PlaneConfig { ranks, max_phases: 16, max_gauges: 32, max_hists: 8, slice_ns: 100_000_000 }
    }

    /// Overrides the histogram slice width.
    pub fn with_slice_ns(mut self, slice_ns: u64) -> Self {
        self.slice_ns = slice_ns;
        self
    }
}

/// A structured alert raised by the [`crate::SloBurnRate`] evaluator.
///
/// Alerts live in the plane's log (for the scraper and exposition) and
/// are *also* stamped into each rank's flight recorder the next time the
/// rank touches its communicator — so a post-mortem flight window shows
/// what the live plane saw before the failure.
#[derive(Clone, Debug, PartialEq)]
pub struct SloAlert {
    /// Sequential id assigned by [`TelemetryPlane::raise_alert`] — the
    /// same id flight-recorder `alert` records carry in their word field.
    pub id: u64,
    /// Plane-clock time the alert fired.
    pub t_ns: u64,
    /// Which SLO burned (e.g. `"serve:e2e_ns"`).
    pub slo: &'static str,
    /// The per-request latency budget.
    pub budget_ns: u64,
    /// The objective (e.g. 0.99 ⇒ a 1% error budget).
    pub objective: f64,
    /// Short-window burn rate at firing time (≥ the fast factor).
    pub short_burn: f64,
    /// Long-window burn rate at firing time (≥ 1).
    pub long_burn: f64,
    /// Short-window p99 at firing time, when the window was non-empty.
    pub short_p99_ns: Option<u64>,
}

/// The shared live-metrics plane: one [`TelemetryCell`] per rank plus
/// one for the serving driver, the name registries that map labels to
/// cell slots, and the alert log.
///
/// Clone the `Arc` freely: publishers (ranks, the serve loop) and
/// consumers (scraper, monitor) share one plane. The plane's clock is
/// its own creation instant; all `t_ns` values are nanoseconds since
/// then.
pub struct TelemetryPlane {
    start: Instant,
    cfg: PlaneConfig,
    phases: Registry,
    gauges: Registry,
    hists: Registry,
    cells: Vec<TelemetryCell>,
    serve: TelemetryCell,
    alerts: Mutex<Vec<SloAlert>>,
    alert_count: AtomicU64,
}

// Manual impl: the cells' derived output would be a wall of counters;
// identify the plane by shape instead.
impl std::fmt::Debug for TelemetryPlane {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TelemetryPlane")
            .field("ranks", &self.cells.len())
            .field("cfg", &self.cfg)
            // ordering: Relaxed — diagnostic display read.
            .field("alerts", &self.alert_count.load(Ordering::Relaxed))
            .finish_non_exhaustive()
    }
}

impl TelemetryPlane {
    /// A plane for `ranks` ranks with default sizing.
    pub fn new(ranks: usize) -> Self {
        Self::with_config(PlaneConfig::new(ranks))
    }

    /// A plane with explicit sizing/windowing.
    pub fn with_config(cfg: PlaneConfig) -> Self {
        let phases = Registry::new(cfg.max_phases.max(1));
        phases.resolve(UNPHASED); // slot 0, also the overflow slot
        let cell = |cfg: &PlaneConfig| {
            TelemetryCell::new(cfg.max_phases.max(1), cfg.max_gauges, cfg.max_hists, cfg.slice_ns)
        };
        TelemetryPlane {
            // lint: clock-anchor — the plane's epoch; every t_ns is
            // measured against this one blessed clock read.
            start: Instant::now(),
            cells: (0..cfg.ranks).map(|_| cell(&cfg)).collect(),
            serve: cell(&cfg),
            phases,
            gauges: Registry::new(cfg.max_gauges),
            hists: Registry::new(cfg.max_hists),
            cfg,
            alerts: Mutex::new(Vec::new()),
            alert_count: AtomicU64::new(0),
        }
    }

    /// The plane's sizing/windowing configuration.
    pub fn config(&self) -> &PlaneConfig {
        &self.cfg
    }

    /// Number of rank cells.
    pub fn ranks(&self) -> usize {
        self.cells.len()
    }

    /// Nanoseconds since the plane was created (monotonic).
    #[inline]
    pub fn now_ns(&self) -> u64 {
        self.start.elapsed().as_nanos() as u64
    }

    /// Rank `r`'s cell.
    #[inline]
    pub fn rank_cell(&self, r: usize) -> &TelemetryCell {
        &self.cells[r]
    }

    /// The serving driver's cell (queue state, request latencies).
    #[inline]
    pub fn serve_cell(&self) -> &TelemetryCell {
        &self.serve
    }

    /// Slot for phase `label` (interned on first sight; slot 0 =
    /// [`UNPHASED`] / overflow).
    pub fn phase_slot(&self, label: &'static str) -> usize {
        self.phases.resolve(label)
    }

    /// Slot for gauge `name`.
    pub fn gauge_slot(&self, name: &'static str) -> usize {
        self.gauges.resolve(name)
    }

    /// Slot for histogram `name`.
    pub fn hist_slot(&self, name: &'static str) -> usize {
        self.hists.resolve(name)
    }

    /// Registered phase labels, in slot order.
    pub fn phase_labels(&self) -> Vec<&'static str> {
        self.phases.names()
    }

    /// Appends `alert` to the log (assigning its sequential id) and
    /// publishes the new count for the ranks' per-send polls. Returns the
    /// assigned id.
    pub fn raise_alert(&self, mut alert: SloAlert) -> u64 {
        let mut log = lock(&self.alerts);
        alert.id = log.len() as u64;
        let id = alert.id;
        log.push(alert);
        // ordering: Relaxed — written under the alerts lock; a poller that
        // sees the new count takes that lock to read the alerts.
        self.alert_count.store(log.len() as u64, Ordering::Relaxed);
        id
    }

    /// Number of alerts raised so far. One relaxed load — this is the
    /// per-send poll ranks use to notice new alerts.
    #[inline]
    pub fn alert_count(&self) -> u64 {
        // ordering: Relaxed — a poll; the poller that sees a new count
        // takes the alerts mutex to read, which orders the contents.
        self.alert_count.load(Ordering::Relaxed)
    }

    /// Alerts with id ≥ `seen` (the ones a poller hasn't stamped yet).
    pub fn alerts_since(&self, seen: u64) -> Vec<SloAlert> {
        let log = lock(&self.alerts);
        log.iter().skip(seen as usize).cloned().collect()
    }

    /// The full alert log.
    pub fn alerts(&self) -> Vec<SloAlert> {
        lock(&self.alerts).clone()
    }

    /// Decodes rank `r`'s cell at time `now_ns`.
    pub fn rank_snapshot(&self, r: usize, now_ns: u64) -> crate::CellSnapshot {
        self.cell_snapshot(&self.cells[r], now_ns)
    }

    /// Decodes the serve cell at time `now_ns`.
    pub fn serve_snapshot(&self, now_ns: u64) -> crate::CellSnapshot {
        self.cell_snapshot(&self.serve, now_ns)
    }

    fn cell_snapshot(&self, cell: &TelemetryCell, now_ns: u64) -> crate::CellSnapshot {
        cell.snapshot(&self.phases.names(), &self.gauges.names(), &self.hists.names(), now_ns)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_is_stable_and_slot_zero_is_unphased() {
        let plane = TelemetryPlane::new(2);
        assert_eq!(plane.phase_slot(UNPHASED), 0);
        let a = plane.phase_slot("gather-x");
        let b = plane.phase_slot("reduce-y");
        assert_eq!(plane.phase_slot("gather-x"), a);
        assert_ne!(a, b);
        assert_eq!(plane.phase_labels()[0], UNPHASED);
    }

    #[test]
    fn registry_overflow_degrades_to_slot_zero() {
        let mut cfg = PlaneConfig::new(1);
        cfg.max_phases = 2; // UNPHASED + one
        let plane = TelemetryPlane::with_config(cfg);
        let a = plane.phase_slot("a");
        assert_eq!(a, 1);
        assert_eq!(plane.phase_slot("b"), 0, "overflow aggregates into slot 0");
        assert_eq!(plane.phase_slot("a"), 1, "existing labels keep their slot");
    }

    #[test]
    fn counters_and_snapshot_reconcile() {
        let plane = TelemetryPlane::new(2);
        let slot = plane.phase_slot("gather-x");
        plane.rank_cell(0).on_send(slot, 10);
        plane.rank_cell(0).on_send(slot, 5);
        plane.rank_cell(1).on_recv(slot, 15);
        let s0 = plane.rank_snapshot(0, plane.now_ns());
        let s1 = plane.rank_snapshot(1, plane.now_ns());
        let g = s0.phase("gather-x").unwrap();
        assert_eq!((g.words_sent, g.msgs_sent), (15, 2));
        assert_eq!(s1.phase("gather-x").unwrap().words_recv, 15);
        assert_eq!(s0.words_sent_total(), s1.words_recv_total());
    }

    #[test]
    fn alerts_assign_sequential_ids_and_publish_counts() {
        let plane = TelemetryPlane::new(1);
        assert_eq!(plane.alert_count(), 0);
        let alert = SloAlert {
            id: 999, // overwritten
            t_ns: 1,
            slo: "serve:e2e_ns",
            budget_ns: 100,
            objective: 0.99,
            short_burn: 7.0,
            long_burn: 2.0,
            short_p99_ns: Some(500),
        };
        assert_eq!(plane.raise_alert(alert.clone()), 0);
        assert_eq!(plane.raise_alert(alert), 1);
        assert_eq!(plane.alert_count(), 2);
        assert_eq!(plane.alerts_since(1).len(), 1);
        assert_eq!(plane.alerts_since(1)[0].id, 1);
    }

    #[test]
    fn snapshot_reads_race_free_under_a_concurrent_writer() {
        // A writer hammers gauge sets while readers snapshot: every
        // observed value must be one of the written ones, and neither side
        // may deadlock.
        let plane = std::sync::Arc::new(TelemetryPlane::new(1));
        let slot = plane.gauge_slot("g");
        let writer = {
            let plane = plane.clone();
            std::thread::spawn(move || {
                for i in 0..50_000u64 {
                    plane.rank_cell(0).gauge_set(slot, i);
                }
            })
        };
        for _ in 0..1_000 {
            let snap = plane.rank_snapshot(0, plane.now_ns());
            assert!(snap.gauge("g").unwrap() < 50_000);
        }
        writer.join().unwrap();
        assert_eq!(plane.rank_snapshot(0, plane.now_ns()).gauge("g"), Some(49_999));
    }
}
