//! The end-to-end validation flow (Figure 1).

use crate::campaign::{racing_tuner, unobserved_dimensions};
use crate::fallible::LazySuiteCost;
use crate::latency::{apply_estimates, estimate_latencies, LatencyEstimates};
use crate::params::{apply, best_guess, build_space, Revision};
use racesim_analyzer::{Diagnostic, Severity};
use racesim_decoder::{Decoder, Quirks};
use racesim_hw::{HardwarePlatform, MeasureError, PerfCounters};
use racesim_kernels::{microbench_suite, microbench_suite_initialized, Category, Scale, Workload};
use racesim_race::{Configuration, ParamSpace, TuneResult, TunerSettings};
use racesim_sim::{Platform, SimOptions, Simulator};
use racesim_stats::abs_pct_error;
use racesim_telemetry::Telemetry;
use racesim_trace::CompactTrace;
use racesim_uarch::CoreKind;
use std::fmt;
use std::sync::Arc;

/// Why a validation run could not complete.
#[derive(Debug)]
pub enum ValidationError {
    /// The hardware platform failed to execute or measure a workload.
    Measure(MeasureError),
    /// The model failed static linting before any simulation was spent:
    /// an anchor platform (base or best-guess) violates a structural
    /// invariant. The diagnostics name the offending lints.
    ModelLint(Vec<Diagnostic>),
}

impl fmt::Display for ValidationError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ValidationError::Measure(e) => write!(f, "{e}"),
            ValidationError::ModelLint(diags) => {
                let errors: Vec<&Diagnostic> = diags
                    .iter()
                    .filter(|d| d.severity == Severity::Error)
                    .collect();
                write!(
                    f,
                    "model failed static linting ({} error{}): ",
                    errors.len(),
                    if errors.len() == 1 { "" } else { "s" }
                )?;
                for (i, d) in errors.iter().enumerate() {
                    if i > 0 {
                        write!(f, "; ")?;
                    }
                    write!(f, "[{}] {}", d.lint.code(), d.message)?;
                }
                Ok(())
            }
        }
    }
}

impl std::error::Error for ValidationError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ValidationError::Measure(e) => Some(e),
            ValidationError::ModelLint(_) => None,
        }
    }
}

impl From<MeasureError> for ValidationError {
    fn from(e: MeasureError) -> Self {
        ValidationError::Measure(e)
    }
}

/// Fail-fast gate: rejects a platform that carries Error-severity lint
/// diagnostics. Warnings and infos pass (they are reported by `racesim
/// lint`, not here).
///
/// # Errors
///
/// Returns [`ValidationError::ModelLint`] with the full diagnostic list
/// when any Error-severity lint fires.
pub fn lint_platform(platform: &Platform) -> Result<(), ValidationError> {
    let diags = racesim_analyzer::platform::check(platform);
    if diags.iter().any(|d| d.severity == Severity::Error) {
        return Err(ValidationError::ModelLint(diags));
    }
    Ok(())
}

/// The cost the tuner minimises.
///
/// The paper's step 5: "For optimizations targeting a specific component,
/// we recommend including metrics that are relevant to that component in
/// the cost function … instead of using the Cycles-Per-Instruction (CPI)
/// error only, a weighted cost function that includes both the branch
/// misprediction rate and the CPI can be used."
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum CostMetric {
    /// Absolute CPI prediction error (percent) — the default.
    CpiError,
    /// `(1 - w) * CPI error + w * branch-misprediction-rate error`,
    /// both in percent.
    CpiAndBranch {
        /// Weight `w` of the branch-misprediction-rate term, in `[0, 1]`.
        branch_weight: f64,
    },
}

impl CostMetric {
    /// Evaluates the metric from simulated and measured quantities.
    pub fn evaluate(&self, sim_cpi: f64, hw_cpi: f64, sim_bmr: f64, hw_bmr: f64) -> f64 {
        let cpi_err = abs_pct_error(sim_cpi, hw_cpi);
        match *self {
            CostMetric::CpiError => cpi_err,
            CostMetric::CpiAndBranch { branch_weight } => {
                let w = branch_weight.clamp(0.0, 1.0);
                // Misprediction rates can legitimately be zero; error is
                // then the absolute rate difference in percentage points.
                let bmr_err = if hw_bmr > 1e-9 {
                    abs_pct_error(sim_bmr, hw_bmr)
                } else {
                    100.0 * (sim_bmr - hw_bmr).abs()
                };
                (1.0 - w) * cpi_err + w * bmr_err
            }
        }
    }
}

/// Settings of a validation run.
#[derive(Debug, Clone)]
pub struct ValidatorSettings {
    /// Which core to validate.
    pub kind: CoreKind,
    /// Model revision (feature set + decoder state + array handling).
    pub revision: Revision,
    /// Micro-benchmark scale.
    pub scale: Scale,
    /// Tuner settings (budget, seed, threads, race statistics).
    pub tuner: TunerSettings,
    /// The cost metric the tuner minimises.
    pub metric: CostMetric,
}

impl ValidatorSettings {
    /// A quick configuration for tests and examples: small scale, small
    /// budget.
    pub fn quick(kind: CoreKind) -> ValidatorSettings {
        ValidatorSettings {
            kind,
            revision: Revision::Fixed,
            scale: Scale::TINY,
            tuner: TunerSettings {
                budget: 600,
                threads: 2,
                ..TunerSettings::default()
            },
            metric: CostMetric::CpiError,
        }
    }
}

/// The CPI prediction of one benchmark under one model.
#[derive(Debug, Clone)]
pub struct BenchResult {
    /// Benchmark name.
    pub name: String,
    /// Benchmark category.
    pub category: Category,
    /// CPI measured on the hardware platform.
    pub hw_cpi: f64,
    /// CPI predicted by the model.
    pub sim_cpi: f64,
}

impl BenchResult {
    /// Absolute CPI prediction error, in percent.
    pub fn error_pct(&self) -> f64 {
        abs_pct_error(self.sim_cpi, self.hw_cpi)
    }
}

/// Everything a validation run produces.
#[derive(Debug)]
pub struct ValidationOutcome {
    /// The hardware-validated platform (step 6).
    pub tuned: Platform,
    /// The pre-tuning platform: public information + latency estimates +
    /// the step-3 best guesses.
    pub untuned: Platform,
    /// Per-benchmark results of the *untuned* model.
    pub untuned_results: Vec<BenchResult>,
    /// Per-benchmark results of the *tuned* model.
    pub tuned_results: Vec<BenchResult>,
    /// The raw tuner output (elites, history, evaluations used).
    pub tune: TuneResult,
    /// The parameter space that was searched.
    pub space: ParamSpace,
    /// The winning configuration.
    pub best: Configuration,
}

impl ValidationOutcome {
    /// Mean absolute CPI error of the untuned model, in percent.
    pub fn untuned_mean_error(&self) -> f64 {
        mean_error(&self.untuned_results)
    }

    /// Mean absolute CPI error of the tuned model, in percent.
    pub fn tuned_mean_error(&self) -> f64 {
        mean_error(&self.tuned_results)
    }
}

fn mean_error(results: &[BenchResult]) -> f64 {
    results.iter().map(|r| r.error_pct()).sum::<f64>() / results.len().max(1) as f64
}

/// Prepared (trace, hardware measurement) pairs — generated once, reused
/// for every simulation, as in the paper.
#[derive(Debug)]
pub struct PreparedSuite {
    /// Workload names.
    pub names: Vec<String>,
    /// Workload categories.
    pub categories: Vec<Category>,
    /// Recorded traces, in the compact replay form.
    pub traces: Vec<Arc<CompactTrace>>,
    /// Hardware counters per workload.
    pub hw: Vec<PerfCounters>,
}

impl PreparedSuite {
    /// Records traces for `workloads` and measures each on `board`.
    ///
    /// # Errors
    ///
    /// Propagates emulation or measurement failures.
    pub fn prepare(
        workloads: &[Workload],
        board: &dyn HardwarePlatform,
    ) -> Result<PreparedSuite, MeasureError> {
        let mut names = Vec::new();
        let mut categories = Vec::new();
        let mut traces = Vec::new();
        let mut hw = Vec::new();
        for w in workloads {
            let trace = w.compact_trace()?;
            let counters = board.measure_compact(&w.name, &trace, w.uninit_data)?;
            names.push(w.name.clone());
            categories.push(w.category);
            traces.push(Arc::new(trace));
            hw.push(counters);
        }
        Ok(PreparedSuite {
            names,
            categories,
            traces,
            hw,
        })
    }

    /// Number of workloads.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// Whether the suite is empty.
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }
}

/// Simulates one platform over a prepared suite, producing per-benchmark
/// results (used by the figure-regeneration binaries as well as the
/// validator itself).
pub fn evaluate_platform(
    platform: &Platform,
    decoder: Decoder,
    suite: &PreparedSuite,
) -> Vec<BenchResult> {
    let sim = Simulator::with_decoder(platform.clone(), decoder, SimOptions::default());
    (0..suite.len())
        .map(|i| {
            let stats = sim
                .run_compact(&suite.traces[i])
                .expect("prepared traces decode cleanly");
            BenchResult {
                name: suite.names[i].clone(),
                category: suite.categories[i],
                hw_cpi: suite.hw[i].cpi(),
                sim_cpi: stats.cpi(),
            }
        })
        .collect()
}

/// The validation methodology driver.
#[derive(Debug)]
pub struct Validator<'hw> {
    board: &'hw dyn HardwarePlatform,
    settings: ValidatorSettings,
}

impl<'hw> Validator<'hw> {
    /// Creates a validator against a hardware platform.
    pub fn new(board: &'hw dyn HardwarePlatform, settings: ValidatorSettings) -> Validator<'hw> {
        Validator { board, settings }
    }

    /// The decoder this revision uses.
    pub fn decoder(&self) -> Decoder {
        if self.settings.revision.decoder_fixed() {
            Decoder::new()
        } else {
            Decoder::with_quirks(Quirks::capstone_like())
        }
    }

    /// The micro-benchmark suite this revision tunes on.
    pub fn suite(&self) -> Vec<Workload> {
        if self.settings.revision.arrays_initialized() {
            microbench_suite_initialized(self.settings.scale)
        } else {
            microbench_suite(self.settings.scale)
        }
    }

    /// The base platform after steps 1–2 (public information plus latency
    /// estimation on the board).
    ///
    /// # Errors
    ///
    /// Propagates probe-measurement failures.
    pub fn base_platform(&self) -> Result<Platform, MeasureError> {
        Ok(self.base_platform_from(&estimate_latencies(self.board)?))
    }

    /// The base platform from latency estimates already probed: the
    /// core's preset with `est` plugged in. No board is touched.
    pub fn base_platform_from(&self, est: &LatencyEstimates) -> Platform {
        let mut base = match self.settings.kind {
            CoreKind::InOrder => Platform::a53_like(),
            CoreKind::OutOfOrder => Platform::a72_like(),
        };
        apply_estimates(&mut base, est);
        base
    }

    /// Runs the full methodology: steps 1–4 and 6. (Step 5 — error
    /// analysis — is [`crate::analysis::analyse`], applied to the
    /// outcome.)
    ///
    /// # Errors
    ///
    /// Propagates workload-execution and measurement failures, and fails
    /// fast with [`ValidationError::ModelLint`] if the base or best-guess
    /// platform violates a structural invariant — catching specification
    /// errors before any racing budget is spent.
    pub fn run(&self) -> Result<ValidationOutcome, ValidationError> {
        // Steps 1–2.
        let base = self.base_platform()?;
        lint_platform(&base)?;
        // Step 3: the schema and the user's best guesses.
        let space = build_space(self.settings.kind, self.settings.revision);
        let guess = best_guess(&space, self.settings.kind);
        let decoder = self.decoder();

        // Record and measure every micro-benchmark once.
        let workloads = self.suite();
        let suite = PreparedSuite::prepare(&workloads, self.board)?;

        let untuned = apply(&space, &guess, &base);
        lint_platform(&untuned)?;
        let untuned_results = evaluate_platform(&untuned, decoder, &suite);

        // Step 4: racing, with the recipe and cost function `tune` uses
        // (every measurement already taken), so both end on the same
        // tuned model.
        let cost =
            LazySuiteCost::from_prepared(&suite, base.clone(), decoder, self.settings.metric);
        let frozen = unobserved_dimensions(&space, &workloads, &base)
            .into_iter()
            .map(|d| (d.index, d.value))
            .collect();
        let tuner = racing_tuner(self.settings.tuner, frozen, &Telemetry::disabled());
        let tune = tuner.try_tune(&space, &cost, suite.len());
        let best = tune.best.clone();

        // Step 6.
        let tuned = apply(&space, &best, &base);
        let tuned_results = evaluate_platform(&tuned, decoder, &suite);

        Ok(ValidationOutcome {
            tuned,
            untuned,
            untuned_results,
            tuned_results,
            tune,
            space,
            best,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use racesim_hw::ReferenceBoard;

    #[test]
    fn quick_validation_reduces_error_on_the_a53() {
        let board = ReferenceBoard::firefly_a53();
        let settings = ValidatorSettings::quick(CoreKind::InOrder);
        let v = Validator::new(&board, settings);
        let out = v.run().expect("validation runs");
        let before = out.untuned_mean_error();
        let after = out.tuned_mean_error();
        assert!(
            after < before,
            "tuning must reduce mean error: {before:.1}% -> {after:.1}%"
        );
        assert_eq!(out.untuned_results.len(), 40);
        assert_eq!(out.tuned_results.len(), 40);
        assert!(out.tune.evals_used <= 600);
    }

    #[test]
    fn revisions_select_decoder_and_suite() {
        let board = ReferenceBoard::firefly_a53();
        let mut settings = ValidatorSettings::quick(CoreKind::InOrder);
        settings.revision = Revision::Initial;
        let v = Validator::new(&board, settings);
        assert!(v.decoder().quirks().any());
        assert!(v.suite().iter().any(|w| w.uninit_data));

        let mut settings = ValidatorSettings::quick(CoreKind::InOrder);
        settings.revision = Revision::Fixed;
        let v = Validator::new(&board, settings);
        assert!(!v.decoder().quirks().any());
        assert!(v.suite().iter().all(|w| !w.uninit_data));
    }

    #[test]
    fn weighted_metric_blends_cpi_and_branch_errors() {
        let m = CostMetric::CpiAndBranch { branch_weight: 0.5 };
        // CPI error 10%, BMR error 20% -> blended 15%.
        let c = m.evaluate(1.1, 1.0, 12.0, 10.0);
        assert!((c - 15.0).abs() < 1e-9, "{c}");
        // Pure CPI ignores branches entirely.
        let c = CostMetric::CpiError.evaluate(1.1, 1.0, 50.0, 1.0);
        assert!((c - 10.0).abs() < 1e-9);
        // Zero hardware rate falls back to absolute points.
        let c = m.evaluate(1.0, 1.0, 0.02, 0.0);
        assert!((c - 1.0).abs() < 1e-9, "{c}");
    }

    #[test]
    fn weighted_metric_runs_end_to_end() {
        // The step-5 "extra optimization round" with a component-targeted
        // cost: CPI blended with the branch-misprediction rate.
        let board = ReferenceBoard::firefly_a53();
        let mut settings = ValidatorSettings::quick(CoreKind::InOrder);
        settings.tuner.budget = 400;
        settings.metric = CostMetric::CpiAndBranch { branch_weight: 0.3 };
        let out = Validator::new(&board, settings).run().expect("runs");
        assert!(out.tuned_mean_error() < out.untuned_mean_error());
    }

    #[test]
    fn lint_gate_rejects_a_structurally_broken_platform() {
        let mut broken = Platform::a53_like();
        // An L1D hit costing more than an L2 hit inverts the memory
        // hierarchy; the analyzer flags it as an Error and the validator
        // refuses to spend a racing budget on it.
        broken.mem.l1d.latency = broken.mem.l2.latency + 1;
        let err = lint_platform(&broken).expect_err("broken platform must be rejected");
        match err {
            ValidationError::ModelLint(diags) => {
                assert!(diags.iter().any(|d| d.severity == Severity::Error));
            }
            other => panic!("expected ModelLint, got {other:?}"),
        }
        // The shipped presets sail through the same gate.
        lint_platform(&Platform::a53_like()).expect("a53 preset is clean");
        lint_platform(&Platform::a72_like()).expect("a72 preset is clean");
    }

    #[test]
    fn base_platform_carries_latency_estimates() {
        let board = ReferenceBoard::firefly_a53();
        let v = Validator::new(&board, ValidatorSettings::quick(CoreKind::InOrder));
        let base = v.base_platform().unwrap();
        // The estimates overwrite the preset values with probe-derived
        // ones; they must be plausible, not exact.
        assert!((2..=6).contains(&base.mem.l1d.latency));
        assert!((80..=400).contains(&base.mem.dram.latency));
    }
}
