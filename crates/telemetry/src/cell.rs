//! The per-rank telemetry cell: phase-sliced traffic counters, named
//! gauges and rolling histograms, written lock-free by the owning thread
//! and snapshot by the scraper without ever blocking the writer.

use crate::histogram::Histogram;
use crate::rolling::RollingHistogram;
use crate::sync::{fence, AtomicU64, Ordering};

/// Traffic counters for one phase slot (see
/// [`crate::TelemetryPlane::phase_slot`]). All monotone.
#[derive(Default)]
pub(crate) struct PhaseCounters {
    pub(crate) words_sent: AtomicU64,
    pub(crate) words_recv: AtomicU64,
    pub(crate) msgs_sent: AtomicU64,
    pub(crate) msgs_recv: AtomicU64,
}

/// One rank's (or the serving driver's) live metrics.
///
/// Writes are **single-writer**: exactly one thread owns the cell at any
/// time (the rank's thread during a universe run, the driver between
/// runs) and publishes with relaxed atomic adds — no locks, no CAS loops
/// on the hot path. Reads come from any thread: the monotone counters
/// are taken as-is, the non-monotone state (gauge `set`s) is guarded by
/// a cell-level seqlock so a snapshot is epoch-consistent — a reader
/// that races a multi-word update retries (bounded) instead of seeing a
/// torn value, and never blocks or slows the writer.
pub struct TelemetryCell {
    /// Seqlock for non-monotone writes (odd = write in progress). Only
    /// gauge `set`s bump it — the hot counter path stays pure adds.
    seq: AtomicU64,
    phases: Vec<PhaseCounters>,
    gauges: Vec<AtomicU64>,
    hists: Vec<RollingHistogram>,
}

impl TelemetryCell {
    pub(crate) fn new(n_phases: usize, n_gauges: usize, n_hists: usize, slice_ns: u64) -> Self {
        TelemetryCell {
            seq: AtomicU64::new(0),
            phases: (0..n_phases).map(|_| PhaseCounters::default()).collect(),
            gauges: (0..n_gauges).map(|_| AtomicU64::new(0)).collect(),
            hists: (0..n_hists).map(|_| RollingHistogram::new(slice_ns)).collect(),
        }
    }

    /// Charges one sent message of `words` words to phase slot `slot`.
    #[inline]
    pub fn on_send(&self, slot: usize, words: u64) {
        let c = &self.phases[slot];
        // ordering: Relaxed — monotone counters; no other data rides on them.
        c.words_sent.fetch_add(words, Ordering::Relaxed);
        c.msgs_sent.fetch_add(1, Ordering::Relaxed);
    }

    /// Charges one received message of `words` words to phase slot `slot`.
    #[inline]
    pub fn on_recv(&self, slot: usize, words: u64) {
        let c = &self.phases[slot];
        // ordering: Relaxed — monotone counters, same as `on_send`.
        c.words_recv.fetch_add(words, Ordering::Relaxed);
        c.msgs_recv.fetch_add(1, Ordering::Relaxed);
    }

    /// Adds `v` to gauge slot `slot` (monotone publish — no seqlock).
    #[inline]
    pub fn gauge_add(&self, slot: usize, v: u64) {
        // ordering: Relaxed — a monotone add; a reader that misses it
        // sees a slightly stale (still valid) value, never a torn one.
        self.gauges[slot].fetch_add(v, Ordering::Relaxed);
    }

    /// Sets gauge slot `slot` to `v`. Non-monotone, so the write is
    /// bracketed by the cell seqlock (two uncontended atomic adds and a
    /// fence — the writer never waits).
    ///
    /// Seqlock writer recipe (verified by the `seqlock` model in
    /// `symtensor-check`): the entry increment makes `seq` odd, the
    /// release fence orders that odd publish before the data store for
    /// any fence-synchronized reader, and the release exit increment
    /// publishes the completed data before `seq` turns even again. The
    /// original form (`fetch_add(Release); store; fetch_add(Release)`)
    /// was a real bug: a release RMW does not stop the *later* data
    /// store from being hoisted above it, so a reader could observe the
    /// mid-write value under an even, unchanged `seq`.
    pub fn gauge_set(&self, slot: usize, v: u64) {
        // ordering: Relaxed — the fence below provides the ordering;
        // the increment itself only needs atomicity.
        let entry = self.seq.fetch_add(1, Ordering::Relaxed);
        debug_assert_eq!(
            entry & 1,
            0,
            "concurrent gauge_set: TelemetryCell writes are single-writer by contract"
        );
        // ordering: Release fence — orders the odd `seq` publish before
        // the data store for any acquire-fence-synchronized reader.
        fence(Ordering::Release);
        // ordering: Relaxed — the surrounding seqlock carries ordering.
        self.gauges[slot].store(v, Ordering::Relaxed);
        // ordering: Release — publishes the data store before the even
        // exit value of `seq`; pairs with the reader's first Acquire load.
        self.seq.fetch_add(1, Ordering::Release);
    }

    /// Current value of gauge slot `slot`.
    #[inline]
    pub fn gauge(&self, slot: usize) -> u64 {
        // ordering: Relaxed — single-word read; callers needing a
        // multi-word-consistent view go through `read_consistent`.
        self.gauges[slot].load(Ordering::Relaxed)
    }

    /// Records `v` into histogram slot `slot` at time `now_ns`.
    #[inline]
    pub fn observe(&self, slot: usize, now_ns: u64, v: u64) {
        self.hists[slot].observe(now_ns, v);
    }

    /// Reads the last `n_slices` slices of histogram slot `slot`.
    pub fn hist_window(&self, slot: usize, now_ns: u64, n_slices: usize) -> Histogram {
        self.hists[slot].window(now_ns, n_slices)
    }

    /// Total words sent across all phase slots (straggler-λ input).
    pub fn words_sent_total(&self) -> u64 {
        // ordering: Relaxed — monotone counter sum; staleness is fine.
        self.phases.iter().map(|c| c.words_sent.load(Ordering::Relaxed)).sum()
    }

    /// Runs `read` under the cell seqlock: retries (up to 8 times) while
    /// a non-monotone write is in flight, then accepts the possibly
    /// mid-flight read rather than ever blocking — a snapshot is a
    /// diagnostic, the hot path is the product.
    ///
    /// Seqlock reader recipe (verified by the `seqlock` model in
    /// `symtensor-check`): the first load is Acquire (pairs with the
    /// writer's release exit), the acquire fence keeps the data reads
    /// from sinking below the second `seq` check, and the second load
    /// can then be Relaxed. The original form re-checked `seq` with a
    /// bare Acquire load, which does not stop earlier data reads from
    /// being reordered *after* it — a torn snapshot could pass the check.
    pub(crate) fn read_consistent<R>(&self, read: impl Fn() -> R) -> R {
        for _ in 0..8 {
            // ordering: Acquire — synchronizes with the writer's release
            // exit increment, so an even value implies complete data.
            let s1 = self.seq.load(Ordering::Acquire);
            if s1 & 1 == 1 {
                std::hint::spin_loop();
                continue;
            }
            let r = read();
            // ordering: Acquire fence — keeps the data reads above the
            // re-check; pairs with the writer's entry release fence.
            fence(Ordering::Acquire);
            // ordering: Relaxed — the fence above already orders this
            // load after the data reads.
            if self.seq.load(Ordering::Relaxed) == s1 {
                return r;
            }
        }
        read()
    }

    /// Decodes the cell against the plane's registries. `phase_labels`
    /// etc. are the interned names in slot order; `now_ns`/`short_slices`
    /// parameterize the histogram windows.
    pub(crate) fn snapshot(
        &self,
        phase_labels: &[&'static str],
        gauge_names: &[&'static str],
        hist_names: &[&'static str],
        now_ns: u64,
        short_slices: usize,
    ) -> CellSnapshot {
        self.read_consistent(|| CellSnapshot {
            phases: phase_labels
                .iter()
                .enumerate()
                .map(|(i, &label)| {
                    let c = &self.phases[i];
                    // Monotone counters inside a `read_consistent`
                    // bracket; the seqlock supplies consistency for the
                    // non-monotone state.
                    PhaseSnapshot {
                        label,
                        // ordering: Relaxed — monotone counter reads.
                        words_sent: c.words_sent.load(Ordering::Relaxed),
                        words_recv: c.words_recv.load(Ordering::Relaxed),
                        // ordering: Relaxed — monotone counter reads.
                        msgs_sent: c.msgs_sent.load(Ordering::Relaxed),
                        msgs_recv: c.msgs_recv.load(Ordering::Relaxed),
                    }
                })
                .collect(),
            gauges: gauge_names
                .iter()
                .enumerate()
                .map(|(i, &name)| GaugeSnapshot { name, value: self.gauge(i) })
                .collect(),
            hists: hist_names
                .iter()
                .enumerate()
                .map(|(i, &name)| HistSnapshot {
                    name,
                    long: self.hists[i].window(now_ns, crate::SLICES),
                    short: self.hists[i].window(now_ns, short_slices),
                })
                .collect(),
        })
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
    /// Merge of the most recent `short_slices` slices.
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
