//! Baseline tuners for the ablation studies: random search and grid
//! search under the same budget accounting as the racing tuner.

use crate::cache::CostCache;
use crate::model::SamplingModel;
use crate::param::{Configuration, Domain, ParamSpace, Value};
use crate::tuner::{CostFn, TuneResult, Tuner, TunerSettings};
use racesim_stats::mean;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Evaluates a configuration on every instance (no early elimination).
fn full_eval(
    space: &ParamSpace,
    cfg: &Configuration,
    cost: &dyn CostFn,
    cache: &CostCache,
    n_instances: usize,
    budget: &mut u64,
) -> Option<f64> {
    let mut costs = Vec::with_capacity(n_instances);
    for inst in 0..n_instances {
        if let Some(c) = cache.get(cfg, inst) {
            costs.push(c);
            continue;
        }
        if *budget == 0 {
            return None;
        }
        let c = cost.cost(cfg, space, inst);
        cache.put(cfg, inst, c);
        *budget -= 1;
        costs.push(c);
    }
    Some(mean(&costs))
}

/// Uniform random sampling with full evaluation of every candidate.
#[derive(Debug, Clone)]
pub struct RandomSearch {
    settings: TunerSettings,
}

impl RandomSearch {
    /// Creates a random-search baseline with the given settings (budget,
    /// seed; race-specific settings are ignored).
    pub fn new(settings: TunerSettings) -> RandomSearch {
        RandomSearch { settings }
    }
}

impl Tuner for RandomSearch {
    fn tune(&self, space: &ParamSpace, cost: &dyn CostFn, n_instances: usize) -> TuneResult {
        let mut rng = StdRng::seed_from_u64(self.settings.seed);
        let model = SamplingModel::new(space);
        let cache = CostCache::new();
        let mut budget = self.settings.budget;
        let mut best: Option<(Configuration, f64)> = None;
        let mut evals = 0u64;
        // Budget exhaustion ends the search; so does a long run of
        // duplicate samples (tiny spaces), which cost no budget.
        let mut free_rides = 0u32;
        while budget > 0 && free_rides < 1000 {
            let cfg = model.sample(space, &mut rng);
            let before = budget;
            let Some(score) = full_eval(space, &cfg, cost, &cache, n_instances, &mut budget) else {
                break;
            };
            if before == budget {
                free_rides += 1;
            } else {
                free_rides = 0;
            }
            evals += before - budget;
            if best.as_ref().map(|(_, c)| score < *c).unwrap_or(true) {
                best = Some((cfg, score));
            }
        }
        let (best, best_cost) = best.unwrap_or_else(|| (space.default_configuration(), f64::NAN));
        TuneResult {
            best: best.clone(),
            best_cost,
            elites: vec![(best, best_cost)],
            evals_used: evals,
            history: Vec::new(),
            quarantined: Vec::new(),
            failed_configs: 0,
            retries: 0,
            aborted: false,
            cache_hits: cache.hits(),
            cache_misses: cache.misses(),
            warnings: Vec::new(),
        }
    }
}

/// Exhaustive scan over a coarsened grid, first-to-last value order,
/// stopping when the budget runs out. ("Evaluating all possible
/// permutations of configuration parameters is computationally
/// unfeasible" — this baseline demonstrates exactly that.)
#[derive(Debug, Clone)]
pub struct GridSearch {
    settings: TunerSettings,
}

impl GridSearch {
    /// Creates a grid-search baseline.
    pub fn new(settings: TunerSettings) -> GridSearch {
        GridSearch { settings }
    }

    fn advance(space: &ParamSpace, cfg: &mut Configuration) -> bool {
        // Odometer increment over all domains.
        for idx in (0..space.len()).rev() {
            let card = space.params()[idx].domain.cardinality();
            let cur = match cfg.value(idx) {
                Value::Cat(i) | Value::Int(i) => i as usize,
                Value::Flag(b) => usize::from(b),
            };
            let next = cur + 1;
            let wrapped = next >= card;
            let new = if wrapped { 0 } else { next };
            let v = match space.params()[idx].domain {
                Domain::Categorical(_) => Value::Cat(new as u16),
                Domain::Integer(_) => Value::Int(new as u16),
                Domain::Bool => Value::Flag(new == 1),
            };
            cfg.set_value(idx, v);
            if !wrapped {
                return true;
            }
        }
        false
    }
}

impl Tuner for GridSearch {
    fn tune(&self, space: &ParamSpace, cost: &dyn CostFn, n_instances: usize) -> TuneResult {
        let cache = CostCache::new();
        let mut budget = self.settings.budget;
        let mut evals = 0u64;
        let mut cfg = space.default_configuration();
        let mut best: Option<(Configuration, f64)> = None;
        loop {
            let before = budget;
            let Some(score) = full_eval(space, &cfg, cost, &cache, n_instances, &mut budget) else {
                break;
            };
            evals += before - budget;
            if best.as_ref().map(|(_, c)| score < *c).unwrap_or(true) {
                best = Some((cfg.clone(), score));
            }
            if !Self::advance(space, &mut cfg) {
                break;
            }
        }
        let (best, best_cost) = best.unwrap_or_else(|| (space.default_configuration(), f64::NAN));
        TuneResult {
            best: best.clone(),
            best_cost,
            elites: vec![(best, best_cost)],
            evals_used: evals,
            history: Vec::new(),
            quarantined: Vec::new(),
            failed_configs: 0,
            retries: 0,
            aborted: false,
            cache_hits: cache.hits(),
            cache_misses: cache.misses(),
            warnings: Vec::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tuner::RacingTuner;

    fn space() -> ParamSpace {
        let mut s = ParamSpace::new();
        s.add_integer("x", &[-4, -2, -1, 0, 1, 2, 4]);
        s.add_integer("y", &[-4, -2, -1, 0, 1, 2, 4]);
        s.add_bool("b");
        s
    }

    struct Bowl;
    impl CostFn for Bowl {
        fn cost(&self, cfg: &Configuration, space: &ParamSpace, instance: usize) -> f64 {
            let x = cfg.integer(space, "x") as f64;
            let y = cfg.integer(space, "y") as f64;
            let b = if cfg.flag(space, "b") { -0.5 } else { 0.0 };
            x * x + y * y + b + (instance % 5) as f64 * 0.1
        }
    }

    #[test]
    fn grid_search_visits_in_order_and_finds_optimum_with_enough_budget() {
        let s = space();
        let g = GridSearch::new(TunerSettings {
            budget: 7 * 7 * 2 * 10,
            ..TunerSettings::default()
        });
        let r = g.tune(&s, &Bowl, 10);
        assert_eq!(r.best.integer(&s, "x"), 0);
        assert_eq!(r.best.integer(&s, "y"), 0);
        assert!(r.best.flag(&s, "b"));
    }

    #[test]
    fn grid_search_with_tiny_budget_explores_a_corner_only() {
        let s = space();
        let g = GridSearch::new(TunerSettings {
            budget: 50,
            ..TunerSettings::default()
        });
        let r = g.tune(&s, &Bowl, 10);
        // 50 evals = 5 configs: the odometer has only moved b and y a bit,
        // so x is stuck at its first value (-4).
        assert_eq!(r.best.integer(&s, "x"), -4);
    }

    #[test]
    fn random_search_converges_slower_than_racing_at_equal_budget() {
        let s = space();
        let budget = 400u64;
        let racing = RacingTuner::new(TunerSettings {
            budget,
            seed: 5,
            ..TunerSettings::default()
        })
        .tune(&s, &Bowl, 10);
        let random = RandomSearch::new(TunerSettings {
            budget,
            seed: 5,
            ..TunerSettings::default()
        })
        .tune(&s, &Bowl, 10);
        assert!(
            racing.best_cost <= random.best_cost + 1e-9,
            "racing ({}) should beat or match random ({})",
            racing.best_cost,
            random.best_cost
        );
    }

    #[test]
    fn baselines_respect_budgets() {
        let s = space();
        for budget in [10u64, 100, 1000] {
            let r = RandomSearch::new(TunerSettings {
                budget,
                ..TunerSettings::default()
            })
            .tune(&s, &Bowl, 10);
            assert!(r.evals_used <= budget);
            let g = GridSearch::new(TunerSettings {
                budget,
                ..TunerSettings::default()
            })
            .tune(&s, &Bowl, 10);
            assert!(g.evals_used <= budget);
        }
    }
}
