//! The shape of the ablation study EXPERIMENTS.md reports, run through
//! the same `racesim_bench::ablation` functions as the `ablations`
//! binary. Only orderings that hold across seeds are pinned: racing vs
//! random search at this budget is within seed noise, so it is not.

use racesim_bench::ablation;

#[test]
fn every_search_beats_the_best_guess_and_grid_search_is_worst() {
    let runs = ablation::search_strategies();
    for r in &runs {
        assert!(
            r.best_cost < r.guess_cost,
            "{} ({:.1}%) must beat the best guess ({:.1}%)",
            r.label,
            r.best_cost,
            r.guess_cost
        );
        assert!(r.evals <= ablation::SEARCH_BUDGET, "{r:?}");
    }
    // Within the budget the grid scan only permutes its last dimensions,
    // so it ends far from what sampling the whole space finds.
    let [racing, random, grid] = runs;
    for r in [&racing, &random] {
        assert!(
            grid.best_cost > r.best_cost,
            "grid search ({:.1}%) must be worse than {} ({:.1}%)",
            grid.best_cost,
            r.label,
            r.best_cost
        );
    }
}

#[test]
fn both_elimination_tests_converge() {
    for r in ablation::elimination_tests() {
        assert!(
            r.best_cost < r.guess_cost / 2.0,
            "{} ({:.1}%) must halve the best guess's error ({:.1}%)",
            r.label,
            r.best_cost,
            r.guess_cost
        );
    }
}

#[test]
fn spec_proxies_simulate_more_per_evaluation_than_micro_benchmarks() {
    let [micro, spec] = ablation::tuning_workloads();
    assert!(micro.evals > 0 && spec.evals > 0);
    assert!(
        spec.insts_per_eval() > 2 * micro.insts_per_eval(),
        "SPEC proxies: {} insts/eval, micro-benchmarks: {}",
        spec.insts_per_eval(),
        micro.insts_per_eval()
    );
}
