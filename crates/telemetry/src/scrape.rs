//! The scraper: samples every cell of a [`TelemetryPlane`] at a
//! configurable interval, deriving the cluster-level gauges that turn
//! raw counters into checkable health — budget ratio against the
//! paper's `2·scheduled_words_per_vector`, straggler λ, and the serve
//! queue state.

use crate::cell::CellSnapshot;
use crate::keys;
use crate::plane::{SloAlert, TelemetryPlane};
use crate::sync::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Scrape interval and the model inputs the derived gauges reconcile
/// against.
#[derive(Clone, Debug)]
pub struct ScrapeConfig {
    /// Sampling interval for [`Scraper::run_scoped`].
    pub interval: Duration,
    /// Per-rank scheduled exchange budget per served vector — pass
    /// `2 · scheduled_words_per_vector(n, q)` to get a live
    /// sent-words-vs-theory ratio; `None` disables the budget gauge.
    pub budget_words_per_vector: Option<u64>,
}

impl Default for ScrapeConfig {
    fn default() -> Self {
        ScrapeConfig { interval: Duration::from_millis(50), budget_words_per_vector: None }
    }
}

impl ScrapeConfig {
    /// Overrides the sampling interval.
    pub fn with_interval(mut self, interval: Duration) -> Self {
        self.interval = interval;
        self
    }

    /// Sets the per-rank per-vector word budget (see the field docs).
    pub fn with_budget_words_per_vector(mut self, budget: u64) -> Self {
        self.budget_words_per_vector = Some(budget);
        self
    }
}

/// Cluster-level gauges derived from one sample.
#[derive(Clone, Debug)]
pub struct DerivedGauges {
    /// Words sent summed over all ranks and phases.
    pub total_words_sent: u64,
    /// Live straggler imbalance λ = max/mean of per-rank words sent;
    /// `None` until any rank has sent.
    pub straggler_lambda: Option<f64>,
    /// `total_words_sent / (ranks · vectors_done · budget)` — ≈ 1.0 when
    /// the run tracks the scheduled-exchange theory with the configured
    /// `2 · scheduled_words_per_vector` budget (each processor sends
    /// `scheduled_words_per_vector` in each of the two exchange phases);
    /// `None` without a configured budget or before any vector
    /// completed.
    pub budget_ratio: Option<f64>,
    /// Requests admitted but not yet completed.
    pub queue_depth: u64,
    /// Current batch fill as a percentage of capacity.
    pub batch_occupancy_pct: u64,
    /// Chaos-serve retry attempts so far.
    pub retries: u64,
    /// Requests completed on the degraded fallback so far.
    pub degraded: u64,
}

/// One timestamped sample of the whole plane.
#[derive(Clone, Debug)]
pub struct ClusterSnapshot {
    /// Plane-clock sample time.
    pub t_ns: u64,
    /// Per-rank cell snapshots, rank order.
    pub ranks: Vec<CellSnapshot>,
    /// The serving driver's cell.
    pub serve: CellSnapshot,
    /// Cluster-level derived gauges.
    pub derived: DerivedGauges,
    /// All alerts raised up to this sample.
    pub alerts: Vec<SloAlert>,
}

/// A completed scrape: the sample series plus the config that produced
/// it — the payload behind the `symtensor-telemetry-v1` artifact.
#[derive(Clone, Debug)]
pub struct TelemetrySeries {
    /// Configured sampling interval, in nanoseconds.
    pub interval_ns: u64,
    /// The configured word budget, if any.
    pub budget_words_per_vector: Option<u64>,
    /// Samples in time order.
    pub samples: Vec<ClusterSnapshot>,
    /// The final alert log.
    pub alerts: Vec<SloAlert>,
}

impl TelemetrySeries {
    /// The most recent sample.
    pub fn last(&self) -> Option<&ClusterSnapshot> {
        self.samples.last()
    }
}

/// Samples a [`TelemetryPlane`] into a [`TelemetrySeries`].
pub struct Scraper {
    plane: Arc<TelemetryPlane>,
    cfg: ScrapeConfig,
    samples: Vec<ClusterSnapshot>,
}

impl Scraper {
    /// A scraper over `plane`.
    pub fn new(plane: Arc<TelemetryPlane>, cfg: ScrapeConfig) -> Self {
        Scraper { plane, cfg, samples: Vec::new() }
    }

    /// Takes one sample now and appends it to the series.
    pub fn sample(&mut self) -> &ClusterSnapshot {
        let snap = sample_plane(&self.plane, &self.cfg);
        self.samples.push(snap);
        // lint: allow-panic — designed invariant: pushed one line up.
        self.samples.last().expect("just pushed")
    }

    /// The samples taken so far.
    pub fn samples(&self) -> &[ClusterSnapshot] {
        &self.samples
    }

    /// Finishes the scrape.
    pub fn into_series(self) -> TelemetrySeries {
        TelemetrySeries {
            interval_ns: self.cfg.interval.as_nanos() as u64,
            budget_words_per_vector: self.cfg.budget_words_per_vector,
            alerts: self.plane.alerts(),
            samples: self.samples,
        }
    }

    /// Runs `work` on the calling thread while a background thread
    /// samples `plane` every `cfg.interval`, then takes one final sample
    /// after `work` returns (so the series always ends with the
    /// completed-run state). Returns `work`'s result and the series.
    pub fn run_scoped<R>(
        plane: Arc<TelemetryPlane>,
        cfg: ScrapeConfig,
        work: impl FnOnce() -> R,
    ) -> (R, TelemetrySeries) {
        let stop = Arc::new(AtomicBool::new(false));
        let sampler = {
            let plane = plane.clone();
            let cfg = cfg.clone();
            let stop = stop.clone();
            std::thread::spawn(move || {
                let mut scraper = Scraper::new(plane, cfg);
                // ordering: Acquire — pairs with the Release stop store
                // so the final sample sees all pre-stop writes.
                while !stop.load(Ordering::Acquire) {
                    scraper.sample();
                    // Sleep in short slices so a finished run is not held
                    // hostage to a long scrape interval at join time.
                    let mut left = scraper.cfg.interval;
                    // ordering: Acquire — same stop handshake as above.
                    while !left.is_zero() && !stop.load(Ordering::Acquire) {
                        let chunk = left.min(Duration::from_millis(1));
                        std::thread::sleep(chunk);
                        left -= chunk;
                    }
                }
                scraper.samples
            })
        };
        let result = work();
        // ordering: Release — publishes work's effects before the stop
        // flag; the sampler's Acquire loads pair with it.
        stop.store(true, Ordering::Release);
        // lint: allow-panic — a crashed sampler loses the series; there
        // is no degraded result worth returning from a poisoned scrape.
        let mut samples = sampler.join().expect("sampler thread panicked");
        let mut scraper = Scraper::new(plane, cfg);
        scraper.samples = std::mem::take(&mut samples);
        scraper.sample();
        (result, scraper.into_series())
    }
}

/// Takes one sample of `plane` (free function so exposition tests can
/// sample without a [`Scraper`]).
pub fn sample_plane(plane: &TelemetryPlane, cfg: &ScrapeConfig) -> ClusterSnapshot {
    let t_ns = plane.now_ns();
    let ranks: Vec<CellSnapshot> =
        (0..plane.ranks()).map(|r| plane.rank_snapshot(r, t_ns)).collect();
    let serve = plane.serve_snapshot(t_ns);
    let derived = derive(&ranks, &serve, cfg);
    ClusterSnapshot { t_ns, ranks, serve, derived, alerts: plane.alerts() }
}

fn derive(ranks: &[CellSnapshot], serve: &CellSnapshot, cfg: &ScrapeConfig) -> DerivedGauges {
    let per_rank_sent: Vec<u64> = ranks.iter().map(|c| c.words_sent_total()).collect();
    let total_words_sent: u64 = per_rank_sent.iter().sum();
    let straggler_lambda = if total_words_sent > 0 && !ranks.is_empty() {
        let mean = total_words_sent as f64 / ranks.len() as f64;
        // lint: allow-panic — designed invariant: guarded by the
        // `!ranks.is_empty()` arm of the enclosing condition.
        Some(*per_rank_sent.iter().max().expect("non-empty") as f64 / mean)
    } else {
        None
    };
    let vectors_done = serve.gauge(keys::VECTORS_DONE).unwrap_or(0);
    let budget_ratio = match (cfg.budget_words_per_vector, vectors_done) {
        (Some(budget), v) if budget > 0 && v > 0 && !ranks.is_empty() => {
            Some(total_words_sent as f64 / (ranks.len() as u64 * v * budget) as f64)
        }
        _ => None,
    };
    DerivedGauges {
        total_words_sent,
        straggler_lambda,
        budget_ratio,
        queue_depth: serve.gauge(keys::QUEUE_DEPTH).unwrap_or(0),
        batch_occupancy_pct: serve.gauge(keys::BATCH_OCCUPANCY_PCT).unwrap_or(0),
        retries: serve.gauge(keys::RETRIES).unwrap_or(0),
        degraded: serve.gauge(keys::DEGRADED).unwrap_or(0),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derived_gauges_reconcile_counters_and_budget() {
        let plane = Arc::new(TelemetryPlane::new(3));
        let slot = plane.phase_slot("gather-x");
        plane.rank_cell(0).on_send(slot, 60);
        plane.rank_cell(1).on_send(slot, 30);
        plane.rank_cell(2).on_send(slot, 30);
        let vd = plane.gauge_slot(keys::VECTORS_DONE);
        plane.serve_cell().gauge_set(vd, 2);
        let cfg = ScrapeConfig::default().with_budget_words_per_vector(20);
        let snap = sample_plane(&plane, &cfg);
        assert_eq!(snap.derived.total_words_sent, 120);
        // λ = 60 / 40 = 1.5
        assert_eq!(snap.derived.straggler_lambda, Some(1.5));
        // 120 / (3 ranks · 2 vectors · 20 words) = 1.0: exactly on budget.
        assert_eq!(snap.derived.budget_ratio, Some(1.0));
    }

    #[test]
    fn run_scoped_samples_during_and_after_the_work() {
        let plane = Arc::new(TelemetryPlane::new(1));
        let slot = plane.phase_slot("gather-x");
        let cfg = ScrapeConfig::default().with_interval(Duration::from_millis(1));
        let (result, series) = Scraper::run_scoped(plane.clone(), cfg, || {
            plane.rank_cell(0).on_send(slot, 7);
            std::thread::sleep(Duration::from_millis(10));
            42
        });
        assert_eq!(result, 42);
        assert!(series.samples.len() >= 2, "at least one in-flight sample plus the final one");
        let last = series.last().expect("final sample exists");
        assert_eq!(last.ranks[0].phase("gather-x").unwrap().words_sent, 7);
        // Samples are in time order.
        for pair in series.samples.windows(2) {
            assert!(pair[0].t_ns <= pair[1].t_ns);
        }
    }
}
