//! Static pre-simulation elimination: the campaign-level adapter between
//! the analyzer's CPI bounds engine and the racing tuner.
//!
//! [`CampaignBounds`] owns, per benchmark instance, the static
//! [`KernelBounds`] of its program and the hardware CPI measured once on
//! a **clean** reference board at construction time. That makes
//! [`StaticBounds::cost_lower_bound`] a pure function of the candidate
//! configuration — no board access, no RNG, no shared mutable state — so
//! elimination decisions are identical under `--threads`, `--workers`,
//! and on replay, which is what lets `racesim replay` verify
//! `static_eliminated` events bit for bit.
//!
//! The lower bound is sound with respect to the campaign's cost metric:
//! for an instance with hardware CPI `m` and static interval `[lo, hi]`,
//! every simulated CPI lands inside the interval (the analyzer's
//! soundness contract), so the CPI-error term is at least
//! `100 * min(|lo - m|, |hi - m|) / m` when `m` falls outside the
//! interval, and unbounded below by `0` otherwise. Terms the engine
//! cannot bound (the branch-misprediction error of
//! [`CostMetric::CpiAndBranch`]) are lower-bounded by `0`.

use crate::params::apply;
use crate::validator::CostMetric;
use racesim_analyzer::bounds::{BoundsOptions, KernelBounds};
use racesim_hw::HardwarePlatform;
use racesim_kernels::Workload;
use racesim_race::{Configuration, ParamSpace, StaticBounds};
use racesim_sim::Platform;

/// Per-campaign static bounds: kernel intervals plus clean-board
/// hardware CPIs, evaluated against candidate configurations.
#[derive(Debug)]
pub struct CampaignBounds {
    base: Platform,
    metric: CostMetric,
    kernels: Vec<KernelBounds>,
    hw_cpi: Vec<f64>,
}

impl CampaignBounds {
    /// Builds the bounds for `suite`, measuring every benchmark once on
    /// `board`. The board must be the clean reference board — fault
    /// injection would make the cached CPIs (and hence every elimination
    /// decision) depend on the fault RNG, breaking replay.
    ///
    /// # Errors
    ///
    /// Propagates trace-recording and measurement failures.
    pub fn measure(
        board: &dyn HardwarePlatform,
        suite: &[Workload],
        base: Platform,
        metric: CostMetric,
    ) -> Result<CampaignBounds, String> {
        let opts = BoundsOptions::default();
        let mut kernels = Vec::with_capacity(suite.len());
        let mut hw_cpi = Vec::with_capacity(suite.len());
        for w in suite {
            let trace = w
                .compact_trace()
                .map_err(|e| format!("tracing {}: {e}", w.name))?;
            let counters = board
                .measure_compact(&w.name, &trace, w.uninit_data)
                .map_err(|e| format!("measuring {}: {e}", w.name))?;
            kernels.push(KernelBounds::build(&w.name, &w.program, &opts));
            hw_cpi.push(counters.cpi());
        }
        Ok(CampaignBounds {
            base,
            metric,
            kernels,
            hw_cpi,
        })
    }

    /// The static kernel bounds, instance-aligned with the suite.
    pub fn kernels(&self) -> &[KernelBounds] {
        &self.kernels
    }

    /// The clean-board hardware CPI of each instance.
    pub fn hw_cpi(&self) -> &[f64] {
        &self.hw_cpi
    }

    /// A sound lower bound on the metric's per-instance cost given the
    /// CPI-error lower bound `cpi_lb` (in percent).
    fn metric_floor(&self, cpi_lb: f64) -> f64 {
        match self.metric {
            CostMetric::CpiError => cpi_lb,
            // The branch term is >= 0; only the CPI share is bounded.
            CostMetric::CpiAndBranch { branch_weight } => {
                (1.0 - branch_weight.clamp(0.0, 1.0)) * cpi_lb
            }
        }
    }
}

impl StaticBounds for CampaignBounds {
    fn cost_lower_bound(&self, space: &ParamSpace, cfg: &Configuration) -> Option<f64> {
        if self.kernels.is_empty() {
            return None;
        }
        let platform = apply(space, cfg, &self.base);
        let mut total = 0.0;
        for (kb, &m) in self.kernels.iter().zip(&self.hw_cpi) {
            if !(m.is_finite() && m > 0.0) {
                return None; // cannot bound percentage error against this CPI
            }
            let iv = kb.cpi_interval(&platform);
            let cpi_lb = if iv.contains(m) {
                0.0
            } else {
                100.0 * (iv.lo - m).abs().min((iv.hi - m).abs()) / m
            };
            total += self.metric_floor(cpi_lb);
        }
        Some(total / self.kernels.len() as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::{best_guess, build_space};
    use crate::Revision;
    use racesim_hw::ReferenceBoard;
    use racesim_kernels::{microbench_suite_initialized, Scale};
    use racesim_uarch::CoreKind;

    fn bounds() -> CampaignBounds {
        CampaignBounds::measure(
            &ReferenceBoard::firefly_a53(),
            &microbench_suite_initialized(Scale::TINY),
            Platform::a53_like(),
            CostMetric::CpiError,
        )
        .expect("clean board measures")
    }

    #[test]
    fn best_guess_config_is_never_eliminable_against_itself() {
        let b = bounds();
        let space = build_space(CoreKind::InOrder, Revision::Fixed);
        let cfg = best_guess(&space, CoreKind::InOrder);
        let lb = b
            .cost_lower_bound(&space, &cfg)
            .expect("suite is non-empty");
        assert!(lb >= 0.0, "lower bounds are non-negative: {lb}");
        // The bound must be sound: it can never exceed the true cost of
        // the configuration. The best-guess config's true CpiError on
        // the reference board is modest; a bound above it would
        // eventually eliminate the true optimum.
        assert!(lb < 100.0, "bound stays below the trivial ceiling: {lb}");
    }

    #[test]
    fn bound_is_a_pure_function_of_the_configuration() {
        let b = bounds();
        let space = build_space(CoreKind::InOrder, Revision::Fixed);
        let cfg = best_guess(&space, CoreKind::InOrder);
        let a = b.cost_lower_bound(&space, &cfg).unwrap();
        let c = b.cost_lower_bound(&space, &cfg).unwrap();
        assert_eq!(a.to_bits(), c.to_bits(), "bit-identical across calls");
    }

    #[test]
    fn empty_suites_prove_nothing() {
        let b = CampaignBounds::measure(
            &ReferenceBoard::firefly_a53(),
            &[],
            Platform::a53_like(),
            CostMetric::CpiError,
        )
        .unwrap();
        let space = build_space(CoreKind::InOrder, Revision::Fixed);
        let cfg = best_guess(&space, CoreKind::InOrder);
        assert_eq!(b.cost_lower_bound(&space, &cfg), None);
    }
}
