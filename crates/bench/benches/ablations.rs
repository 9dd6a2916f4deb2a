//! Ablation studies over the design choices DESIGN.md calls out, run as
//! Criterion benches so they are tracked over time:
//!
//! * racing vs random search vs grid search at equal budget (solution
//!   quality is printed; wall time is the measured quantity);
//! * Friedman vs paired-t elimination;
//! * tuning on micro-benchmarks vs tuning directly on macro workloads
//!   (the paper argues micro-benchmarks isolate errors and are cheap —
//!   here the cost per evaluation shows up directly in the wall time).

use criterion::{criterion_group, criterion_main, Criterion};
use racesim_core::params::{apply, best_guess, build_space, Revision};
use racesim_core::validator::PreparedSuite;
use racesim_decoder::Decoder;
use racesim_hw::ReferenceBoard;
use racesim_kernels::{microbench_suite, spec_suite, Scale};
use racesim_race::{
    Configuration, CostFn, EliminationTest, GridSearch, ParamSpace, RaceSettings, RacingTuner,
    RandomSearch, Tuner, TunerSettings,
};
use racesim_sim::{SimOptions, Simulator};
use racesim_stats::abs_pct_error;
use racesim_uarch::CoreKind;

/// A real simulation-backed cost function over the prepared suite.
struct SimCost {
    base: racesim_sim::Platform,
    suite: PreparedSuite,
}

impl CostFn for SimCost {
    fn cost(&self, cfg: &Configuration, space: &ParamSpace, instance: usize) -> f64 {
        let p = apply(space, cfg, &self.base);
        let sim = Simulator::with_decoder(p, Decoder::new(), SimOptions::default());
        match sim.run_compact(&self.suite.traces[instance]) {
            Ok(stats) => abs_pct_error(stats.cpi(), self.suite.hw[instance].cpi()),
            Err(_) => f64::MAX,
        }
    }
}

fn prepared_micro() -> SimCost {
    let board = ReferenceBoard::firefly_a53();
    let suite = PreparedSuite::prepare(&microbench_suite(Scale::TINY), &board).unwrap();
    SimCost {
        base: racesim_sim::Platform::a53_like(),
        suite,
    }
}

fn prepared_spec() -> SimCost {
    let board = ReferenceBoard::firefly_a53();
    let suite = PreparedSuite::prepare(&spec_suite(Scale::TINY), &board).unwrap();
    SimCost {
        base: racesim_sim::Platform::a53_like(),
        suite,
    }
}

fn settings(budget: u64, test: EliminationTest) -> TunerSettings {
    TunerSettings {
        budget,
        seed: 42,
        threads: 1,
        race: RaceSettings {
            test,
            ..RaceSettings::default()
        },
        ..TunerSettings::default()
    }
}

fn bench_search_strategies(c: &mut Criterion) {
    let cost = prepared_micro();
    let space = build_space(CoreKind::InOrder, Revision::Fixed);
    let n = cost.suite.len();
    let budget = 400u64;

    let mut group = c.benchmark_group("search_strategy");
    group.sample_size(10);
    group.bench_function("racing", |b| {
        b.iter(|| {
            RacingTuner::new(settings(budget, EliminationTest::Friedman)).tune(&space, &cost, n)
        })
    });
    group.bench_function("random", |b| {
        b.iter(|| {
            RandomSearch::new(settings(budget, EliminationTest::Friedman)).tune(&space, &cost, n)
        })
    });
    group.bench_function("grid", |b| {
        b.iter(|| {
            GridSearch::new(settings(budget, EliminationTest::Friedman)).tune(&space, &cost, n)
        })
    });
    group.finish();

    // Solution quality at equal budget (printed once, outside timing).
    let racing =
        RacingTuner::new(settings(budget, EliminationTest::Friedman)).tune(&space, &cost, n);
    let random =
        RandomSearch::new(settings(budget, EliminationTest::Friedman)).tune(&space, &cost, n);
    let grid = GridSearch::new(settings(budget, EliminationTest::Friedman)).tune(&space, &cost, n);
    let guess_cost = {
        let g = best_guess(&space, CoreKind::InOrder);
        (0..n).map(|i| cost.cost(&g, &space, i)).sum::<f64>() / n as f64
    };
    println!(
        "\n[ablation] mean CPI error at {budget} evals: best-guess {guess_cost:.1}%, \
         racing {:.1}%, random {:.1}%, grid {:.1}%",
        racing.best_cost, random.best_cost, grid.best_cost
    );
}

fn bench_elimination_tests(c: &mut Criterion) {
    let cost = prepared_micro();
    let space = build_space(CoreKind::InOrder, Revision::Fixed);
    let n = cost.suite.len();
    let mut group = c.benchmark_group("elimination_test");
    group.sample_size(10);
    group.bench_function("friedman_wilcoxon", |b| {
        b.iter(|| RacingTuner::new(settings(300, EliminationTest::Friedman)).tune(&space, &cost, n))
    });
    group.bench_function("paired_t", |b| {
        b.iter(|| RacingTuner::new(settings(300, EliminationTest::PairedT)).tune(&space, &cost, n))
    });
    group.finish();
}

fn bench_micro_vs_macro_tuning(c: &mut Criterion) {
    let micro = prepared_micro();
    let spec = prepared_spec();
    let space = build_space(CoreKind::InOrder, Revision::Fixed);
    let mut group = c.benchmark_group("tuning_workload");
    group.sample_size(10);
    group.bench_function("on_microbenchmarks", |b| {
        b.iter(|| {
            RacingTuner::new(settings(200, EliminationTest::Friedman)).tune(
                &space,
                &micro,
                micro.suite.len(),
            )
        })
    });
    group.bench_function("on_spec_macro", |b| {
        b.iter(|| {
            RacingTuner::new(settings(200, EliminationTest::Friedman)).tune(
                &space,
                &spec,
                spec.suite.len(),
            )
        })
    });
    group.finish();
}

/// Criterion configuration: set `RACESIM_QUICK_BENCH=1` to shrink
/// measurement times (used by CI and the final smoke runs).
fn configured() -> Criterion {
    let c = Criterion::default();
    if std::env::var("RACESIM_QUICK_BENCH").is_ok() {
        c.measurement_time(std::time::Duration::from_secs(2))
            .warm_up_time(std::time::Duration::from_millis(500))
            .sample_size(10)
    } else {
        c
    }
}

criterion_group! {
    name = benches;
    config = configured();
    targets = bench_search_strategies,
    bench_elimination_tests,
    bench_micro_vs_macro_tuning
}
criterion_main!(benches);
