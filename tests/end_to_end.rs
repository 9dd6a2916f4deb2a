//! End-to-end integration: the full methodology at a small budget, on
//! both cores, exercising every crate in the workspace together.

use racesim::prelude::*;

#[test]
fn a53_validation_pipeline_improves_and_generalises() {
    let board = ReferenceBoard::firefly_a53();
    let mut settings = ValidatorSettings::quick(CoreKind::InOrder);
    settings.tuner.budget = 900;
    settings.tuner.threads = 4;
    let outcome = Validator::new(&board, settings).run().expect("pipeline");

    // Tuning improves the tuning set.
    let before = outcome.untuned_mean_error();
    let after = outcome.tuned_mean_error();
    assert!(
        after < before,
        "tuning must reduce microbenchmark error: {before:.1}% -> {after:.1}%"
    );

    // ... and generalises to unseen macro workloads (SPEC proxies):
    // the tuned model should not be worse than the untuned one there.
    let spec = spec_suite(Scale::TINY);
    let prepared = racesim::core::PreparedSuite::prepare(&spec, &board).expect("spec measurable");
    let err_of = |p: &Platform| -> f64 {
        let sim = Simulator::new(p.clone());
        (0..prepared.len())
            .map(|i| {
                let s = sim.run_compact(&prepared.traces[i]).unwrap();
                100.0 * ((s.cpi() - prepared.hw[i].cpi()) / prepared.hw[i].cpi()).abs()
            })
            .sum::<f64>()
            / prepared.len() as f64
    };
    let untuned_spec = err_of(&outcome.untuned);
    let tuned_spec = err_of(&outcome.tuned);
    assert!(
        tuned_spec <= untuned_spec * 1.1,
        "tuned model must generalise: {untuned_spec:.1}% -> {tuned_spec:.1}%"
    );
}

#[test]
fn a72_validation_pipeline_improves() {
    let board = ReferenceBoard::firefly_a72();
    let mut settings = ValidatorSettings::quick(CoreKind::OutOfOrder);
    settings.tuner.budget = 900;
    settings.tuner.threads = 4;
    let outcome = Validator::new(&board, settings).run().expect("pipeline");
    assert!(
        outcome.tuned_mean_error() < outcome.untuned_mean_error(),
        "{:.1}% -> {:.1}%",
        outcome.untuned_mean_error(),
        outcome.tuned_mean_error()
    );
}

#[test]
fn initial_revision_has_higher_floor_than_fixed() {
    // The Figure-4 story: the initial model (buggy decoder, missing
    // features, uninitialised arrays) cannot be tuned as well as the
    // fixed model under the same small budget.
    let board = ReferenceBoard::firefly_a53();
    let run = |revision| {
        let mut settings = ValidatorSettings::quick(CoreKind::InOrder);
        settings.revision = revision;
        settings.tuner.budget = 700;
        settings.tuner.threads = 4;
        Validator::new(&board, settings)
            .run()
            .expect("pipeline")
            .tuned_mean_error()
    };
    let initial = run(Revision::Initial);
    let fixed = run(Revision::Fixed);
    assert!(
        fixed < initial,
        "fixing abstraction errors must lower the tuned floor: initial {initial:.1}% vs fixed {fixed:.1}%"
    );
}

#[test]
fn analysis_of_untuned_initial_model_recommends_the_papers_fixes() {
    use racesim::core::params;
    use racesim::core::validator::{evaluate_platform, PreparedSuite};

    let board = ReferenceBoard::firefly_a53();
    let settings = ValidatorSettings {
        kind: CoreKind::InOrder,
        revision: Revision::Initial,
        scale: Scale::TINY,
        tuner: TunerSettings::default(),
        metric: racesim::core::CostMetric::CpiError,
    };
    let v = Validator::new(&board, settings);
    let base = v.base_platform().expect("probes");
    let space = params::build_space(CoreKind::InOrder, Revision::Initial);
    let guess = params::best_guess(&space, CoreKind::InOrder);
    let platform = params::apply(&space, &guess, &base);
    let suite = PreparedSuite::prepare(&v.suite(), &board).expect("suite");
    let results = evaluate_platform(&platform, v.decoder(), &suite);
    let report = analysis::analyse(&results);
    assert!(
        report.needs_another_round(),
        "the untuned initial model must trip the analysis: {:.1}% overall",
        report.overall_error
    );
}

#[test]
fn quick_a53_validation_is_pinned_bit_for_bit() {
    // Recorded from the quick A53 validation before `validate` raced on
    // the campaign's cost function: any change to the cost path, the
    // replay loop or the race that moves a single bit shows up here.
    let board = ReferenceBoard::firefly_a53();
    let settings = ValidatorSettings::quick(CoreKind::InOrder);
    let outcome = Validator::new(&board, settings).run().expect("pipeline");
    assert_eq!(
        outcome.tune.best_cost.to_bits(),
        0x4044_b047_e7bf_c591,
        "best cost {}",
        outcome.tune.best_cost
    );
    assert_eq!(outcome.tune.evals_used, 593);
    assert_eq!(
        racesim::sim::config_text::to_text(&outcome.tuned),
        include_str!("fixtures/validate_quick_a53.cfg")
    );
}

#[test]
fn validate_and_tune_race_identically() {
    // `validate` and `tune` share one race recipe (settings plus the
    // coverage-frozen dimensions), so on the same core, scale, budget and
    // seed they end on the same tuned model.
    let board = ReferenceBoard::firefly_a53();
    let outcome = Validator::new(&board, ValidatorSettings::quick(CoreKind::InOrder))
        .run()
        .expect("validation runs");

    let mut spec = CampaignSpec {
        kind: CoreKind::InOrder,
        scale: Scale::TINY,
        budget: 600,
        seed: TunerSettings::default().seed,
        threads: 2,
        workers: 0,
        max_iterations: None,
        static_bounds: false,
        timeout_ms: None,
        fault_profile: "none".to_string(),
        fault_seed: 1,
        frozen: Vec::new(),
    };
    let telemetry = racesim::telemetry::Telemetry::disabled();
    let stack = spec.build_stack(&telemetry).expect("stack builds");
    // What `racesim tune` freezes before racing.
    let frozen: Vec<_> =
        racesim::core::unobserved_dimensions(&stack.space, &stack.suite, &stack.base)
            .into_iter()
            .map(|d| (d.index, d.value))
            .collect();
    assert!(!frozen.is_empty(), "the quick suite leaves dimensions dead");
    spec.set_frozen(&stack.space, &frozen);
    let tune = spec.run(&telemetry).expect("campaign runs");

    assert_eq!(
        outcome.tune.best_cost.to_bits(),
        tune.best_cost.to_bits(),
        "validate {} vs tune {}",
        outcome.tune.best_cost,
        tune.best_cost
    );
    assert_eq!(outcome.tune.evals_used, tune.evals_used);
    assert_eq!(
        params::apply(&stack.space, &tune.best, &stack.base),
        outcome.tuned
    );
}
