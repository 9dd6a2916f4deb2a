//! # racesim-bench
//!
//! The experiment harness: one binary per table and figure of the paper
//! (see DESIGN.md's experiment index) plus the ablation study.
//!
//! | Binary | Reproduces |
//! |--------|------------|
//! | `table1` | Table I — micro-benchmark suite and dynamic instruction counts |
//! | `table2` | Table II — SPEC benchmarks, regions and instruction counts |
//! | `fig2_race` | Figure 2 — the racing algorithm's elimination behaviour |
//! | `fig4` | Figure 4 — per-micro-benchmark CPI error, untuned vs tuned (A53) |
//! | `fig5` | Figure 5 — SPEC CPI error of the tuned A53 model |
//! | `fig6` | Figure 6 — SPEC CPI error of the tuned A72 model |
//! | `fig7` | Figure 7 — close-to-optimum worst case on the A53 |
//! | `fig8` | Figure 8 — close-to-optimum worst case on the A72 |
//! | `ablations` | racing vs random vs grid, Friedman vs paired-t, micro vs SPEC tuning |
//!
//! The table and figure binaries accept three environment variables:
//! `RACESIM_SCALE` (divisor of the paper's dynamic instruction counts,
//! default 512), `RACESIM_BUDGET` (racing evaluation budget, default
//! 12 000; the paper used 10K–100K trials) and `RACESIM_SEED` (tuner
//! seed, default `0xA5372`). Results are printed as ASCII
//! charts and written as CSV next to the binary's working directory under
//! `results/`. `ablations` reads none of them: its constants are fixed
//! (see [`ablation`]) and it only prints.

#![warn(missing_docs)]

use racesim_core::validator::{evaluate_platform, PreparedSuite};
use racesim_core::{Revision, ValidationOutcome, Validator, ValidatorSettings};
use racesim_decoder::Decoder;
use racesim_hw::HardwarePlatform;
use racesim_kernels::{spec_suite, Scale};
use racesim_race::{Configuration, ParamSpace, TunerSettings};
use racesim_sim::{Platform, SimOptions, Simulator};
use racesim_stats::abs_pct_error;
use racesim_uarch::CoreKind;
use std::path::PathBuf;

/// Experiment-wide knobs, read from the environment.
#[derive(Debug, Clone, Copy)]
pub struct ExperimentConfig {
    /// Workload scale.
    pub scale: Scale,
    /// Racing budget (fresh evaluations).
    pub budget: u64,
    /// Evaluation threads.
    pub threads: usize,
    /// Tuner seed.
    pub seed: u64,
}

impl ExperimentConfig {
    /// Reads `RACESIM_SCALE` / `RACESIM_BUDGET` / `RACESIM_SEED` with
    /// defaults suited to a release-build laptop run.
    ///
    /// # Panics
    ///
    /// Panics when a variable is set to something other than an unsigned
    /// integer (experiment binaries fail loudly).
    pub fn from_env() -> ExperimentConfig {
        let knob = |name: &str, default| env_knob(name, std::env::var(name).ok(), default);
        let scale_div = knob("RACESIM_SCALE", 512);
        let budget = knob("RACESIM_BUDGET", 12_000);
        let seed = knob("RACESIM_SEED", 0x000A_5372);
        ExperimentConfig {
            scale: Scale::divide_by(scale_div),
            budget,
            threads: std::thread::available_parallelism()
                .map(|p| p.get())
                .unwrap_or(4),
            seed,
        }
    }

    /// Validator settings for this experiment config.
    pub fn validator_settings(&self, kind: CoreKind, revision: Revision) -> ValidatorSettings {
        ValidatorSettings {
            kind,
            revision,
            scale: self.scale,
            tuner: TunerSettings {
                budget: self.budget,
                threads: self.threads,
                seed: self.seed,
                ..TunerSettings::default()
            },
            metric: racesim_core::CostMetric::CpiError,
        }
    }
}

/// One environment knob: unset gives `default`, and a value that is not
/// an unsigned integer panics with the variable and the value, so a typo
/// such as `RACESIM_BUDGET=12k` never silently runs the default.
fn env_knob(name: &str, value: Option<String>, default: u64) -> u64 {
    match value {
        None => default,
        Some(v) => v
            .parse()
            .unwrap_or_else(|_| panic!("{name}={v:?} is not an unsigned integer")),
    }
}

pub use racesim_core::board_for;

/// Runs the full validation for a core kind and revision.
///
/// # Panics
///
/// Panics on measurement failures (experiment binaries fail loudly).
pub fn validate(kind: CoreKind, revision: Revision, cfg: &ExperimentConfig) -> ValidationOutcome {
    let board = board_for(kind);
    let validator = Validator::new(&board, cfg.validator_settings(kind, revision));
    validator.run().expect("validation failed")
}

/// Per-application CPI errors of `platform` on the SPEC proxies.
///
/// # Panics
///
/// Panics on measurement failures.
pub fn spec_errors(
    platform: &Platform,
    board: &dyn HardwarePlatform,
    scale: Scale,
) -> Vec<(String, f64)> {
    let prepared =
        PreparedSuite::prepare(&spec_suite(scale), board).expect("SPEC proxies measurable");
    evaluate_platform(platform, Decoder::new(), &prepared)
        .into_iter()
        .map(|r| (r.name.clone(), r.error_pct()))
        .collect()
}

/// CPI error in percent of `cfg`, applied over `base`, on benchmark `i`
/// of `suite`; `f64::MAX` when the simulator rejects the trace.
fn cpi_error(
    suite: &PreparedSuite,
    base: &Platform,
    space: &ParamSpace,
    cfg: &Configuration,
    i: usize,
) -> f64 {
    let p = racesim_core::params::apply(space, cfg, base);
    let sim = Simulator::with_decoder(p, Decoder::new(), SimOptions::default());
    match sim.run_compact(&suite.traces[i]) {
        Ok(stats) => abs_pct_error(stats.cpi(), suite.hw[i].cpi()),
        Err(_) => f64::MAX,
    }
}

/// The Figure-7/8 perturbation experiment, shared by both binaries.
pub mod perturbation {
    use super::*;
    use racesim_core::perturb::worst_within_one_step_multistart;
    use racesim_core::report;

    /// Runs the close-to-optimum worst-case experiment for one core kind
    /// and prints/saves the resulting SPEC error profile.
    ///
    /// # Panics
    ///
    /// Panics on measurement failures.
    pub fn run_perturbation(kind: CoreKind, title: &str, csv_name: &str, paper_note: &str) {
        let cfg = ExperimentConfig::from_env();
        banner(title);

        // Tune first (Figures 5/6 flow), then attack the optimum.
        let outcome = validate(kind, Revision::Fixed, &cfg);
        let board = board_for(kind);

        // Cost function for the worst-case search: the figures report SPEC
        // CPI error, so the box is searched directly against the SPEC
        // proxies ("we exhaustively search for the worst configuration …
        // and report the accuracy result").
        let suite = racesim_core::PreparedSuite::prepare(&spec_suite(cfg.scale), &board)
            .expect("SPEC proxies measurable");
        let n_search = suite.len();
        // `untuned` carries the lmbench-estimated base values; apply()
        // overwrites every tunable, so it serves as the base platform.
        let base = &outcome.untuned;
        let cost = |c: &Configuration, s: &ParamSpace, i: usize| cpi_error(&suite, base, s, c, i);
        let search_instances: Vec<usize> = (0..n_search).collect();
        println!("searching the ±1-step box around the optimum (multi-start greedy ascent)...");
        let perturbed = worst_within_one_step_multistart(
            &outcome.space,
            &outcome.best,
            &cost,
            &search_instances,
            2,
            cfg.seed,
            cfg.threads,
        );
        println!(
            "SPEC-proxy cost: optimum {:.1}% -> worst-in-box {:.1}%  ({} evaluations)",
            perturbed.optimum_cost, perturbed.worst_cost, perturbed.evals_used
        );

        // Evaluate both configurations on the SPEC proxies.
        let tuned_rows = spec_errors(&outcome.tuned, &board, cfg.scale);
        let worst_platform = racesim_core::params::apply(&outcome.space, &perturbed.worst, base);
        let worst_rows = spec_errors(&worst_platform, &board, cfg.scale);

        println!("\nSPEC CPI error, worst close-to-optimum configuration:");
        print!("{}", report::bar_chart(&worst_rows, 40, "%"));
        println!(
            "\naverage: tuned {:.1}%  ->  perturbed {:.1}%   {paper_note}",
            mean_of(&tuned_rows),
            mean_of(&worst_rows)
        );

        let rows: Vec<Vec<String>> = tuned_rows
            .iter()
            .zip(&worst_rows)
            .map(|((n, t), (_, w))| vec![n.clone(), format!("{t:.2}"), format!("{w:.2}")])
            .collect();
        let csv = results_dir().join(csv_name);
        report::write_csv(&csv, &["benchmark", "tuned_pct", "perturbed_pct"], &rows)
            .expect("write csv");
        println!("written: {}", csv.display());
    }
}

/// The ablation study over the design choices DESIGN.md calls out, run
/// by the `ablations` binary and pinned by `tests/experiments_shape.rs`:
///
/// * racing vs random search vs grid search at equal budget;
/// * Friedman vs paired-t elimination;
/// * tuning on micro-benchmarks vs tuning directly on the SPEC proxies
///   (the paper argues micro-benchmarks isolate errors and are cheap:
///   the instructions simulated per evaluation show the cost directly).
///
/// Every study is fixed: the A53 board, [`Scale::TINY`], seed [`SEED`](ablation::SEED)
/// and the budgets below. None reads an environment variable.
pub mod ablation {
    use super::*;
    use racesim_core::params::{best_guess, build_space};
    use racesim_core::report;
    use racesim_hw::ReferenceBoard;
    use racesim_kernels::{microbench_suite_initialized, Workload};
    use racesim_race::{
        CostFn, EliminationTest, GridSearch, RaceSettings, RacingTuner, RandomSearch, Tuner,
    };
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::time::{Duration, Instant};

    /// Tuner seed of every study.
    pub const SEED: u64 = 42;
    /// Evaluation budget of the search-strategy study.
    pub const SEARCH_BUDGET: u64 = 400;
    /// Evaluation budget of the elimination-test study.
    pub const ELIMINATION_BUDGET: u64 = 300;
    /// Evaluation budget of the tuning-workload study.
    pub const WORKLOAD_BUDGET: u64 = 200;

    /// CPI error of a configuration against a suite measured on the A53
    /// board, counting the instructions it simulates.
    struct SuiteCost {
        base: Platform,
        suite: PreparedSuite,
        simulated: AtomicU64,
    }

    impl SuiteCost {
        fn on(workloads: &[Workload]) -> SuiteCost {
            let board = ReferenceBoard::firefly_a53();
            SuiteCost {
                base: Platform::a53_like(),
                suite: PreparedSuite::prepare(workloads, &board).expect("suite measurable"),
                simulated: AtomicU64::new(0),
            }
        }

        /// The fixed revision's micro-benchmarks (initialised arrays).
        fn micro() -> SuiteCost {
            SuiteCost::on(&microbench_suite_initialized(Scale::TINY))
        }

        fn spec() -> SuiteCost {
            SuiteCost::on(&spec_suite(Scale::TINY))
        }

        fn len(&self) -> usize {
            self.suite.len()
        }

        fn simulated(&self) -> u64 {
            self.simulated.load(Ordering::Relaxed)
        }

        /// Mean cost of `cfg` over the whole suite.
        fn mean(&self, cfg: &Configuration, space: &ParamSpace) -> f64 {
            (0..self.len())
                .map(|i| self.cost(cfg, space, i))
                .sum::<f64>()
                / self.len() as f64
        }
    }

    impl CostFn for SuiteCost {
        fn cost(&self, cfg: &Configuration, space: &ParamSpace, instance: usize) -> f64 {
            let insts = self.suite.traces[instance].len() as u64;
            self.simulated.fetch_add(insts, Ordering::Relaxed);
            cpi_error(&self.suite, &self.base, space, cfg, instance)
        }
    }

    /// One search of a study.
    #[derive(Debug, Clone)]
    pub struct Run {
        /// What was searched: the strategy, test or suite.
        pub label: &'static str,
        /// Mean CPI error of the best-guess configuration the search
        /// starts from, in percent.
        pub guess_cost: f64,
        /// Mean CPI error of the best configuration found, in percent.
        pub best_cost: f64,
        /// Fresh evaluations spent.
        pub evals: u64,
        /// Instructions simulated by those evaluations.
        pub insts: u64,
        /// Wall time of the search.
        pub wall: Duration,
    }

    impl Run {
        /// Instructions simulated per evaluation.
        pub fn insts_per_eval(&self) -> u64 {
            self.insts / self.evals.max(1)
        }
    }

    fn settings(budget: u64, test: EliminationTest) -> TunerSettings {
        TunerSettings {
            budget,
            seed: SEED,
            threads: 1,
            race: RaceSettings {
                test,
                ..RaceSettings::default()
            },
            ..TunerSettings::default()
        }
    }

    /// Runs each `(label, tuner)` over `cost`, recording what it spent.
    fn runs<const N: usize>(
        cost: &SuiteCost,
        tuners: [(&'static str, Box<dyn Tuner>); N],
    ) -> [Run; N] {
        let space = build_space(CoreKind::InOrder, Revision::Fixed);
        let guess_cost = cost.mean(&best_guess(&space, CoreKind::InOrder), &space);
        tuners.map(|(label, tuner)| {
            let insts = cost.simulated();
            let start = Instant::now();
            let r = tuner.tune(&space, cost, cost.len());
            Run {
                label,
                guess_cost,
                best_cost: r.best_cost,
                evals: r.evals_used,
                insts: cost.simulated() - insts,
                wall: start.elapsed(),
            }
        })
    }

    /// Racing, random search and grid search at [`SEARCH_BUDGET`] on the
    /// micro-benchmarks.
    pub fn search_strategies() -> [Run; 3] {
        let s = settings(SEARCH_BUDGET, EliminationTest::Friedman);
        runs(
            &SuiteCost::micro(),
            [
                ("racing", Box::new(RacingTuner::new(s))),
                ("random", Box::new(RandomSearch::new(s))),
                ("grid", Box::new(GridSearch::new(s))),
            ],
        )
    }

    /// Racing with Friedman+Wilcoxon and with paired-t elimination at
    /// [`ELIMINATION_BUDGET`] on the micro-benchmarks.
    pub fn elimination_tests() -> [Run; 2] {
        let racing = |test| Box::new(RacingTuner::new(settings(ELIMINATION_BUDGET, test)));
        runs(
            &SuiteCost::micro(),
            [
                ("friedman-wilcoxon", racing(EliminationTest::Friedman)),
                ("paired-t", racing(EliminationTest::PairedT)),
            ],
        )
    }

    /// Racing at [`WORKLOAD_BUDGET`] on the micro-benchmarks and on the
    /// SPEC proxies.
    pub fn tuning_workloads() -> [Run; 2] {
        let racing = || {
            Box::new(RacingTuner::new(settings(
                WORKLOAD_BUDGET,
                EliminationTest::Friedman,
            )))
        };
        let [micro] = runs(&SuiteCost::micro(), [("micro", racing())]);
        let [spec] = runs(&SuiteCost::spec(), [("spec", racing())]);
        [micro, spec]
    }

    /// Renders runs as a table: label, best-guess and best cost, evaluations,
    /// instructions per evaluation and wall time.
    pub fn table(first_column: &str, runs: &[Run]) -> String {
        let rows: Vec<Vec<String>> = runs
            .iter()
            .map(|r| {
                vec![
                    r.label.to_string(),
                    format!("{:.1}%", r.guess_cost),
                    format!("{:.1}%", r.best_cost),
                    r.evals.to_string(),
                    r.insts_per_eval().to_string(),
                    format!("{:.0} ms", r.wall.as_secs_f64() * 1e3),
                ]
            })
            .collect();
        report::table(
            &[
                first_column,
                "best guess",
                "best found",
                "evaluations",
                "insts/eval",
                "wall",
            ],
            &rows,
        )
    }
}

/// Directory where experiment CSVs land (`results/`, created on demand).
///
/// # Panics
///
/// Panics if the directory cannot be created.
pub fn results_dir() -> PathBuf {
    let dir = PathBuf::from("results");
    std::fs::create_dir_all(&dir).expect("create results/");
    dir
}

/// Prints a titled section header.
pub fn banner(title: &str) {
    println!("\n=== {title} ===\n");
}

/// Mean of labelled values.
pub fn mean_of(rows: &[(String, f64)]) -> f64 {
    if rows.is_empty() {
        return 0.0;
    }
    rows.iter().map(|(_, v)| v).sum::<f64>() / rows.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn env_defaults_are_sane() {
        // Do not set the env vars: defaults apply.
        let cfg = ExperimentConfig::from_env();
        assert_eq!(cfg.scale.divisor(), 512);
        assert_eq!(cfg.budget, 12_000);
        assert_eq!(cfg.seed, 0xA5372);
        assert!(cfg.threads >= 1);
        let s = cfg.validator_settings(CoreKind::InOrder, Revision::Fixed);
        assert_eq!(s.kind, CoreKind::InOrder);
        assert_eq!(s.tuner.budget, cfg.budget);
    }

    #[test]
    fn env_knobs_parse_or_fall_back_when_unset() {
        assert_eq!(env_knob("RACESIM_BUDGET", None, 12_000), 12_000);
        assert_eq!(
            env_knob("RACESIM_BUDGET", Some("300".to_string()), 12_000),
            300
        );
    }

    #[test]
    #[should_panic(expected = "RACESIM_BUDGET=\"12k\" is not an unsigned integer")]
    fn unparsable_env_knobs_fail_loudly() {
        env_knob("RACESIM_BUDGET", Some("12k".to_string()), 12_000);
    }

    #[test]
    fn mean_of_labelled_rows() {
        assert_eq!(mean_of(&[]), 0.0);
        let rows = vec![("a".to_string(), 2.0), ("b".to_string(), 4.0)];
        assert!((mean_of(&rows) - 3.0).abs() < 1e-12);
    }

    #[test]
    fn boards_match_core_kinds() {
        assert!(board_for(CoreKind::InOrder).name().contains("a53"));
        assert!(board_for(CoreKind::OutOfOrder).name().contains("a72"));
    }
}
