//! Multi-window SLO burn-rate evaluation (the SRE-handbook shape): an
//! alert fires only when the *short* window burns error budget at ≥
//! `FAST_FACTOR`× the sustainable rate **and** the *long* window burns
//! at ≥ 1× — fast enough to catch an incident inside one scrape
//! interval, immune to a single slow request tripping it.

use crate::plane::{SloAlert, TelemetryPlane};
use crate::rolling::SLICES;

/// Objective fraction of requests that must meet the budget: a 1% error
/// budget.
const OBJECTIVE: f64 = 0.99;
/// Short-window burn multiple required to fire.
const FAST_FACTOR: f64 = 5.0;
/// Slices in the short window, the one cell snapshots report as `short`.
pub(crate) const SHORT_SLICES: usize = 2;
/// Slices in the long window: the whole ring.
const LONG_SLICES: usize = SLICES;

/// A latency-budget SLO over one of the serve cell's rolling histograms
/// plus the evaluator state (cooldown) for it.
///
/// Burn rate = (fraction of requests over `budget_ns`) / (1 − `OBJECTIVE`):
/// 1.0 means the error budget is being spent exactly as fast as the
/// objective allows; 5.0 means five times too fast.
#[derive(Clone, Debug)]
pub struct SloBurnRate {
    /// Which serve histogram to read (e.g. [`crate::keys::E2E_NS`]).
    pub hist: &'static str,
    /// Per-request latency budget.
    pub budget_ns: u64,
    /// Minimum plane-time between two alerts from this evaluator, so a
    /// sustained burn produces a paced stream instead of one alert per
    /// evaluation.
    pub cooldown_ns: u64,
    fired_at: Option<u64>,
}

impl SloBurnRate {
    /// A p99-style end-to-end latency SLO over
    /// [`crate::keys::E2E_NS`]: 0.99 objective, 5× fast factor,
    /// 2-slice short window, full-ring long window, 1 ms cooldown.
    pub fn serve_e2e(budget_ns: u64) -> Self {
        SloBurnRate { hist: crate::keys::E2E_NS, budget_ns, cooldown_ns: 1_000_000, fired_at: None }
    }

    /// Current (short, long) burn rates, or `None` while either window
    /// is still empty.
    pub fn burn_rates(&self, plane: &TelemetryPlane) -> Option<(f64, f64)> {
        let slot = plane.hist_slot(self.hist);
        let now = plane.now_ns();
        let cell = plane.serve_cell();
        let short = cell.hist_window(slot, now, SHORT_SLICES);
        let long = cell.hist_window(slot, now, LONG_SLICES);
        if short.count == 0 || long.count == 0 {
            return None;
        }
        let error_budget = 1.0 - OBJECTIVE;
        Some((
            short.frac_over(self.budget_ns) / error_budget,
            long.frac_over(self.budget_ns) / error_budget,
        ))
    }

    /// Evaluates the SLO now: when both windows burn past their
    /// thresholds (and the cooldown has elapsed), raises an alert on the
    /// plane and returns it. Ranks polling the plane will stamp the
    /// alert into their flight recorders on their next communicator
    /// touch.
    pub fn evaluate(&mut self, plane: &TelemetryPlane) -> Option<SloAlert> {
        let (short_burn, long_burn) = self.burn_rates(plane)?;
        if short_burn < FAST_FACTOR || long_burn < 1.0 {
            return None;
        }
        let now = plane.now_ns();
        if let Some(t) = self.fired_at {
            if now.saturating_sub(t) < self.cooldown_ns {
                return None;
            }
        }
        self.fired_at = Some(now);
        let slot = plane.hist_slot(self.hist);
        let short = plane.serve_cell().hist_window(slot, now, SHORT_SLICES);
        let mut alert = SloAlert {
            id: 0,
            t_ns: now,
            slo: self.hist,
            budget_ns: self.budget_ns,
            objective: OBJECTIVE,
            short_burn,
            long_burn,
            short_p99_ns: short.try_quantile(0.99),
        };
        alert.id = plane.raise_alert(alert.clone());
        Some(alert)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::keys;
    use crate::plane::PlaneConfig;

    fn plane_with_e2e(values_over: usize, values_under: usize) -> TelemetryPlane {
        let plane = TelemetryPlane::with_config(PlaneConfig::new(1).with_slice_ns(1 << 40));
        let slot = plane.hist_slot(keys::E2E_NS);
        let now = plane.now_ns();
        for _ in 0..values_over {
            plane.serve_cell().observe(slot, now, 1_000_000); // 1 ms
        }
        for _ in 0..values_under {
            plane.serve_cell().observe(slot, now, 10); // 10 ns
        }
        plane
    }

    #[test]
    fn burns_fire_only_when_both_windows_exceed() {
        // Budget 100 ns, objective 0.99: every 1 ms request burns budget.
        let plane = plane_with_e2e(10, 0);
        let mut slo = SloBurnRate::serve_e2e(100);
        let (short, long) = slo.burn_rates(&plane).expect("windows are non-empty");
        assert!(short >= 5.0 && long >= 1.0, "short={short} long={long}");
        let alert = slo.evaluate(&plane).expect("alert fires");
        assert_eq!(alert.slo, keys::E2E_NS);
        assert_eq!(alert.id, 0);
        assert!(alert.short_burn >= 5.0 && alert.long_burn >= 1.0);
        assert_eq!(plane.alerts().len(), 1);
    }

    #[test]
    fn healthy_traffic_never_fires() {
        let plane = plane_with_e2e(0, 100);
        let mut slo = SloBurnRate::serve_e2e(100);
        assert!(slo.evaluate(&plane).is_none());
        assert!(plane.alerts().is_empty());
    }

    #[test]
    fn empty_windows_never_fire() {
        let plane = plane_with_e2e(0, 0);
        let mut slo = SloBurnRate::serve_e2e(100);
        assert!(slo.burn_rates(&plane).is_none());
        assert!(slo.evaluate(&plane).is_none());
    }

    #[test]
    fn cooldown_paces_a_sustained_burn() {
        let plane = plane_with_e2e(10, 0);
        let mut slo = SloBurnRate::serve_e2e(100);
        slo.cooldown_ns = u64::MAX; // fire at most once
        assert!(slo.evaluate(&plane).is_some());
        assert!(slo.evaluate(&plane).is_none(), "cooldown suppresses the repeat");
        assert_eq!(plane.alerts().len(), 1);
    }
}
