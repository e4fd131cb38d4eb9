//! The per-rank telemetry cell: phase-sliced traffic counters, named
//! gauges and rolling histograms behind one lock, written by the owning
//! thread and copied out by the scraper.

use crate::histogram::Histogram;
use crate::lock;
use crate::rolling::RollingHistogram;
use std::sync::Mutex;

/// One rank's (or the serving driver's) live metrics.
///
/// Every write and every read takes the cell's one lock for a few adds
/// or one copy. The owning thread is the only regular writer and a
/// scrape is rare, so the lock is almost never contended; a snapshot is
/// consistent across all of the cell's counters by construction.
pub struct TelemetryCell {
    state: Mutex<CellState>,
}

struct CellState {
    /// Per phase slot (see [`crate::TelemetryPlane::phase_slot`]): words
    /// sent, words received, messages sent, messages received.
    phases: Vec<[u64; 4]>,
    gauges: Vec<u64>,
    hists: Vec<RollingHistogram>,
}

impl TelemetryCell {
    pub(crate) fn new(n_phases: usize, n_gauges: usize, n_hists: usize, slice_ns: u64) -> Self {
        TelemetryCell {
            state: Mutex::new(CellState {
                phases: vec![[0; 4]; n_phases],
                gauges: vec![0; n_gauges],
                hists: (0..n_hists).map(|_| RollingHistogram::new(slice_ns)).collect(),
            }),
        }
    }

    /// Charges one sent message of `words` words to phase slot `slot`.
    #[inline]
    pub fn on_send(&self, slot: usize, words: u64) {
        let c = &mut lock(&self.state).phases[slot];
        c[0] += words;
        c[2] += 1;
    }

    /// Charges one received message of `words` words to phase slot `slot`.
    #[inline]
    pub fn on_recv(&self, slot: usize, words: u64) {
        let c = &mut lock(&self.state).phases[slot];
        c[1] += words;
        c[3] += 1;
    }

    /// Adds `v` to gauge slot `slot`.
    #[inline]
    pub fn gauge_add(&self, slot: usize, v: u64) {
        lock(&self.state).gauges[slot] += v;
    }

    /// Sets gauge slot `slot` to `v`.
    #[inline]
    pub fn gauge_set(&self, slot: usize, v: u64) {
        lock(&self.state).gauges[slot] = v;
    }

    /// Current value of gauge slot `slot`.
    #[inline]
    pub fn gauge(&self, slot: usize) -> u64 {
        lock(&self.state).gauges[slot]
    }

    /// Records `v` into histogram slot `slot` at time `now_ns`.
    #[inline]
    pub fn observe(&self, slot: usize, now_ns: u64, v: u64) {
        lock(&self.state).hists[slot].observe(now_ns, v);
    }

    /// Reads the last `n_slices` slices of histogram slot `slot`.
    pub fn hist_window(&self, slot: usize, now_ns: u64, n_slices: usize) -> Histogram {
        lock(&self.state).hists[slot].window(now_ns, n_slices)
    }

    /// Total words sent across all phase slots (straggler-λ input).
    pub fn words_sent_total(&self) -> u64 {
        lock(&self.state).phases.iter().map(|c| c[0]).sum()
    }

    /// Decodes the cell against the plane's registries. `phase_labels`
    /// etc. are the interned names in slot order; `now_ns` ends the
    /// histogram windows.
    pub(crate) fn snapshot(
        &self,
        phase_labels: &[&'static str],
        gauge_names: &[&'static str],
        hist_names: &[&'static str],
        now_ns: u64,
    ) -> CellSnapshot {
        let state = lock(&self.state);
        CellSnapshot {
            phases: phase_labels
                .iter()
                .zip(&state.phases)
                .map(|(&label, c)| PhaseSnapshot {
                    label,
                    words_sent: c[0],
                    words_recv: c[1],
                    msgs_sent: c[2],
                    msgs_recv: c[3],
                })
                .collect(),
            gauges: gauge_names
                .iter()
                .zip(&state.gauges)
                .map(|(&name, &value)| GaugeSnapshot { name, value })
                .collect(),
            hists: hist_names
                .iter()
                .zip(&state.hists)
                .map(|(&name, h)| HistSnapshot {
                    name,
                    long: h.window(now_ns, crate::SLICES),
                    short: h.window(now_ns, crate::slo::SHORT_SLICES),
                })
                .collect(),
        }
    }
}

/// Decoded traffic counters of one phase slot.
#[derive(Clone, Debug)]
pub struct PhaseSnapshot {
    /// Interned phase label ([`crate::UNPHASED`] for slot 0).
    pub label: &'static str,
    /// Words sent in this phase so far.
    pub words_sent: u64,
    /// Words received in this phase so far.
    pub words_recv: u64,
    /// Messages sent in this phase so far.
    pub msgs_sent: u64,
    /// Messages received in this phase so far.
    pub msgs_recv: u64,
}

/// Decoded gauge value.
#[derive(Clone, Debug)]
pub struct GaugeSnapshot {
    /// Interned gauge name (see [`crate::keys`]).
    pub name: &'static str,
    /// Current value.
    pub value: u64,
}

/// Decoded rolling histogram: the full window plus the short window the
/// burn-rate evaluator uses.
#[derive(Clone, Debug)]
pub struct HistSnapshot {
    /// Interned histogram name (see [`crate::keys`]).
    pub name: &'static str,
    /// Merge of all live slices.
    pub long: Histogram,
    /// Merge of the most recent slices the burn-rate evaluator reads as
    /// its short window.
    pub short: Histogram,
}

/// One cell, fully decoded. Only slots registered at snapshot time
/// appear (registries only grow, so later snapshots are supersets).
#[derive(Clone, Debug)]
pub struct CellSnapshot {
    /// Per-phase traffic counters, in slot order.
    pub phases: Vec<PhaseSnapshot>,
    /// Gauges, in slot order.
    pub gauges: Vec<GaugeSnapshot>,
    /// Rolling histograms, in slot order.
    pub hists: Vec<HistSnapshot>,
}

impl CellSnapshot {
    /// The empty snapshot.
    pub fn empty() -> Self {
        CellSnapshot { phases: Vec::new(), gauges: Vec::new(), hists: Vec::new() }
    }

    /// Looks up a gauge by name.
    pub fn gauge(&self, name: &str) -> Option<u64> {
        self.gauges.iter().find(|g| g.name == name).map(|g| g.value)
    }

    /// Looks up a phase by label.
    pub fn phase(&self, label: &str) -> Option<&PhaseSnapshot> {
        self.phases.iter().find(|p| p.label == label)
    }

    /// Looks up a histogram by name.
    pub fn hist(&self, name: &str) -> Option<&HistSnapshot> {
        self.hists.iter().find(|h| h.name == name)
    }

    /// Total words sent across all phases.
    pub fn words_sent_total(&self) -> u64 {
        self.phases.iter().map(|p| p.words_sent).sum()
    }

    /// Total words received across all phases.
    pub fn words_recv_total(&self) -> u64 {
        self.phases.iter().map(|p| p.words_recv).sum()
    }
}
