//! Close-to-optimum perturbation (Figures 7 and 8).
//!
//! "We start from the optimum configuration and find the worst
//! configuration that results from giving each configuration parameter a
//! value that differs by a single step from the optimal … We exhaustively
//! search for the worst configuration that can be achieved with such a
//! small deviation (including the deviation of multiple parameters
//! simultaneously)."
//!
//! Exhausting the ±1 box over ~60 parameters is 3⁶⁰ configurations; this
//! module uses greedy coordinate ascent inside the box — repeatedly
//! applying the single-parameter one-step deviation that *increases* the
//! tuning cost the most — which finds the box's local worst case with a
//! few hundred evaluations and reproduces the paper's conclusion: even
//! all-parameters-within-one-step configurations are drastically wrong.

use racesim_race::{Configuration, CostFn, ParamSpace, Value};
use racesim_stats::mean;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

/// The worst-case search result.
#[derive(Debug, Clone)]
pub struct PerturbOutcome {
    /// The adversarial configuration found inside the ±1 box.
    pub worst: Configuration,
    /// Its mean cost over the search instances.
    pub worst_cost: f64,
    /// The optimum's mean cost, for reference.
    pub optimum_cost: f64,
    /// Cost evaluations spent by the search.
    pub evals_used: u64,
}

/// Enumerates the ≤2 one-step neighbours of parameter `idx` *relative to
/// the optimum*, given the current value (which may already deviate).
fn one_step_values(space: &ParamSpace, optimum: &Configuration, idx: usize) -> Vec<Value> {
    let card = space.params()[idx].domain.cardinality();
    let center = match optimum.value(idx) {
        Value::Cat(i) | Value::Int(i) => i as usize,
        Value::Flag(b) => usize::from(b),
    };
    let mut out = Vec::new();
    for cand in [center.wrapping_sub(1), center, center + 1] {
        if cand >= card || (cand == center) {
            if cand == center {
                out.push(make_value(space, idx, center));
            }
            continue;
        }
        out.push(make_value(space, idx, cand));
    }
    out
}

fn make_value(space: &ParamSpace, idx: usize, pos: usize) -> Value {
    use racesim_race::Domain;
    match space.params()[idx].domain {
        Domain::Categorical(_) => Value::Cat(pos as u16),
        Domain::Integer(_) => Value::Int(pos as u16),
        Domain::Bool => Value::Flag(pos == 1),
    }
}

fn mean_cost(
    space: &ParamSpace,
    cfg: &Configuration,
    cost: &dyn CostFn,
    instances: &[usize],
    evals: &mut u64,
) -> f64 {
    let costs: Vec<f64> = instances
        .iter()
        .map(|&i| {
            *evals += 1;
            cost.cost(cfg, space, i)
        })
        .collect();
    mean(&costs)
}

/// Evaluates candidate configurations in parallel; returns their costs in
/// order.
fn parallel_costs(
    space: &ParamSpace,
    cands: &[Configuration],
    cost: &dyn CostFn,
    instances: &[usize],
    threads: usize,
    evals: &mut u64,
) -> Vec<f64> {
    *evals += (cands.len() * instances.len()) as u64;
    if threads <= 1 || cands.len() <= 1 {
        let mut scratch = 0u64;
        return cands
            .iter()
            .map(|c| mean_cost(space, c, cost, instances, &mut scratch))
            .collect();
    }
    let out: Vec<AtomicU64> = (0..cands.len()).map(|_| AtomicU64::new(0)).collect();
    let next = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for _ in 0..threads.min(cands.len()) {
            scope.spawn(|| loop {
                let k = next.fetch_add(1, Ordering::Relaxed);
                if k >= cands.len() {
                    break;
                }
                let mut scratch = 0u64;
                let c = mean_cost(space, &cands[k], cost, instances, &mut scratch);
                out[k].store(c.to_bits(), Ordering::Relaxed);
            });
        }
    });
    out.into_iter()
        .map(|a| f64::from_bits(a.into_inner()))
        .collect()
}

/// Greedy coordinate ascent from `start`, confined to the ±1-step box
/// around `optimum`. Returns the local maximum and its cost.
#[allow(clippy::too_many_arguments)]
fn ascend(
    space: &ParamSpace,
    optimum: &Configuration,
    start: Configuration,
    start_cost: f64,
    cost: &dyn CostFn,
    instances: &[usize],
    threads: usize,
    evals: &mut u64,
) -> (Configuration, f64) {
    let mut current = start;
    let mut current_cost = start_cost;
    loop {
        // Gather every one-step move, then cost them in parallel.
        let mut moves: Vec<(usize, Value)> = Vec::new();
        for idx in 0..space.len() {
            for v in one_step_values(space, optimum, idx) {
                if v != current.value(idx) {
                    moves.push((idx, v));
                }
            }
        }
        let cands: Vec<Configuration> = moves
            .iter()
            .map(|&(idx, v)| {
                let mut c = current.clone();
                c.set_value(idx, v);
                c
            })
            .collect();
        let costs = parallel_costs(space, &cands, cost, instances, threads, evals);
        let best = moves
            .iter()
            .zip(&costs)
            .filter(|(_, c)| **c > current_cost)
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap_or(std::cmp::Ordering::Equal));
        match best {
            Some((&(idx, v), &c)) => {
                current.set_value(idx, v);
                current_cost = c;
            }
            None => break,
        }
    }
    (current, current_cost)
}

/// A random corner of the ±1-step box around `optimum`.
fn random_corner(
    space: &ParamSpace,
    optimum: &Configuration,
    rng: &mut impl rand::Rng,
) -> Configuration {
    let mut c = optimum.clone();
    for idx in 0..space.len() {
        let choices = one_step_values(space, optimum, idx);
        c.set_value(idx, choices[rng.gen_range(0..choices.len())]);
    }
    c
}

/// Finds (an approximation of) the worst configuration within one step of
/// `optimum` on every parameter, by greedy coordinate ascent over
/// `instances`.
pub fn worst_within_one_step(
    space: &ParamSpace,
    optimum: &Configuration,
    cost: &dyn CostFn,
    instances: &[usize],
) -> PerturbOutcome {
    worst_within_one_step_multistart(space, optimum, cost, instances, 0, 0, 1)
}

/// Multi-start variant: in addition to ascending from the optimum, runs
/// the greedy ascent from `restarts` random corners of the ±1-step box,
/// keeping the overall worst. More restarts approximate the paper's
/// exhaustive box search more closely.
pub fn worst_within_one_step_multistart(
    space: &ParamSpace,
    optimum: &Configuration,
    cost: &dyn CostFn,
    instances: &[usize],
    restarts: usize,
    seed: u64,
    threads: usize,
) -> PerturbOutcome {
    use rand::SeedableRng;
    let mut evals = 0u64;
    let optimum_cost = mean_cost(space, optimum, cost, instances, &mut evals);
    let (mut worst, mut worst_cost) = ascend(
        space,
        optimum,
        optimum.clone(),
        optimum_cost,
        cost,
        instances,
        threads,
        &mut evals,
    );
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    for _ in 0..restarts {
        let corner = random_corner(space, optimum, &mut rng);
        let corner_cost = mean_cost(space, &corner, cost, instances, &mut evals);
        let (cand, cand_cost) = ascend(
            space,
            optimum,
            corner,
            corner_cost,
            cost,
            instances,
            threads,
            &mut evals,
        );
        if cand_cost > worst_cost {
            worst = cand;
            worst_cost = cand_cost;
        }
    }
    PerturbOutcome {
        worst,
        worst_cost,
        optimum_cost,
        evals_used: evals,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn space() -> ParamSpace {
        let mut s = ParamSpace::new();
        s.add_integer("x", &[-4, -2, -1, 0, 1, 2, 4]);
        s.add_integer("y", &[-4, -2, -1, 0, 1, 2, 4]);
        s.add_bool("b");
        s
    }

    struct Bowl;
    impl CostFn for Bowl {
        fn cost(&self, cfg: &Configuration, space: &ParamSpace, _instance: usize) -> f64 {
            let x = cfg.integer(space, "x") as f64;
            let y = cfg.integer(space, "y") as f64;
            let b = if cfg.flag(space, "b") { 3.0 } else { 0.0 };
            x * x + y * y + b
        }
    }

    fn optimum(s: &ParamSpace) -> Configuration {
        let mut c = s.default_configuration();
        c.set_integer(s, "x", 0);
        c.set_integer(s, "y", 0);
        c.set_flag(s, "b", false);
        c
    }

    #[test]
    fn finds_the_corner_of_the_one_step_box() {
        let s = space();
        let opt = optimum(&s);
        let out = worst_within_one_step(&s, &opt, &Bowl, &[0]);
        // Inside the box, worst is x=±1, y=±1, b=true: cost 1+1+3 = 5.
        assert_eq!(out.optimum_cost, 0.0);
        assert_eq!(out.worst_cost, 5.0, "{}", out.worst.render(&s));
        assert!(out.evals_used > 0);
    }

    #[test]
    fn never_leaves_the_one_step_box() {
        let s = space();
        let opt = optimum(&s);
        let out = worst_within_one_step(&s, &opt, &Bowl, &[0]);
        // x and y must be within one candidate step of 0 (i.e. -1..=1).
        assert!(out.worst.integer(&s, "x").abs() <= 1);
        assert!(out.worst.integer(&s, "y").abs() <= 1);
    }

    #[test]
    fn multistart_is_at_least_as_bad_as_single_start() {
        let s = space();
        let opt = optimum(&s);
        let single = worst_within_one_step(&s, &opt, &Bowl, &[0]);
        let multi = worst_within_one_step_multistart(&s, &opt, &Bowl, &[0], 4, 7, 2);
        assert!(multi.worst_cost >= single.worst_cost);
        assert!(multi.evals_used > single.evals_used);
        // Still confined to the box.
        assert!(multi.worst.integer(&s, "x").abs() <= 1);
        assert!(multi.worst.integer(&s, "y").abs() <= 1);
    }

    #[test]
    fn optimum_at_domain_edge_is_handled() {
        let s = space();
        let mut opt = optimum(&s);
        opt.set_integer(&s, "x", -4); // first value: only one neighbour
        let out = worst_within_one_step(&s, &opt, &Bowl, &[0]);
        assert!(out.worst_cost >= out.optimum_cost);
    }
}
