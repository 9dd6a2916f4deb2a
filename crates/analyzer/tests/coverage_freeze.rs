//! Acceptance fixture for coverage-based freezing: a seeded space with a
//! dimension no kernel in the (fixture) suite can observe. The coverage
//! matrix must identify it, and feeding the result into
//! `RacingTuner::with_frozen` must keep the dimension pinned in every
//! configuration the tuner ever evaluates — the dead dimension is frozen
//! *before* simulation, not raced over.

use racesim_analyzer::coverage::CoverageMatrix;
use racesim_analyzer::ir;
use racesim_isa::asm::Asm;
use racesim_isa::Reg;
use racesim_race::{Configuration, ParamSpace, RacingTuner, Tuner, TunerSettings, Value};
use racesim_sim::Platform;
use std::collections::HashSet;
use std::sync::Mutex;

/// A space mixing live dimensions with one the fixture kernels cannot
/// observe: `lat.fp_sqrt` maps to fp-square-root sites and the kernels
/// below are integer-only.
fn seeded_space() -> ParamSpace {
    let mut s = ParamSpace::new();
    s.add_integer("width", &[1, 2, 4]);
    s.add_integer("lat.fp_sqrt", &[4, 8, 16, 32]);
    s.add_categorical("l1i.replacement", &["lru", "fifo"]);
    s
}

/// Two integer-only kernels: a dependency chain and a counted loop.
fn fixture_profiles() -> Vec<ir::KernelProfile> {
    let mut chain = Asm::new();
    chain.movz(Reg::x(1), 3);
    chain.add(Reg::x(2), Reg::x(1), Reg::x(1));
    chain.mul(Reg::x(3), Reg::x(2), Reg::x(1));
    chain.halt();
    let mut looped = Asm::new();
    looped.movz(Reg::x(1), 64);
    let top = looped.here();
    looped.add(Reg::x(2), Reg::x(2), Reg::x(1));
    looped.subi(Reg::x(1), Reg::x(1), 1);
    looped.cbnz(Reg::x(1), top);
    looped.halt();
    vec![
        ir::profile("chain", &chain.finish()),
        ir::profile("looped", &looped.finish()),
    ]
}

/// A cost function that records the exact rendering of every evaluated
/// configuration.
struct Recording {
    seen: Mutex<HashSet<String>>,
}

impl racesim_race::CostFn for Recording {
    fn cost(&self, cfg: &Configuration, space: &ParamSpace, instance: usize) -> f64 {
        let rendered = cfg.render(space);
        self.seen.lock().unwrap().insert(rendered.clone());
        // Deterministic, config-dependent, instance-dependent.
        (rendered.len() * (instance + 1)) as f64
    }
}

#[test]
fn unobservable_dimension_is_frozen_before_any_evaluation() {
    let space = seeded_space();
    let matrix = CoverageMatrix::build(&space, &fixture_profiles(), &Platform::a53_like());

    // The matrix singles out exactly the seeded-dead dimension.
    assert_eq!(matrix.unobservable(), vec!["lat.fp_sqrt"]);
    assert!(matrix.observers_of("width").unwrap().len() == 2);

    // Freeze what the matrix flagged, exactly as `racesim tune` does.
    let defaults = space.default_configuration();
    let frozen: Vec<(usize, Value)> = matrix
        .params
        .iter()
        .enumerate()
        .filter(|(_, p)| p.count() == 0)
        .map(|(i, _)| (i, defaults.value(i)))
        .collect();
    assert_eq!(frozen.len(), 1);

    let cost = Recording {
        seen: Mutex::new(HashSet::new()),
    };
    let settings = TunerSettings {
        budget: 400,
        threads: 1,
        seed: 7,
        ..TunerSettings::default()
    };
    let result = RacingTuner::new(settings)
        .with_frozen(frozen.clone())
        .tune(&space, &cost, 3);

    // Every configuration the tuner ever sent to the cost function — and
    // the final winner — carries the frozen value; the live dimensions
    // still vary.
    let pinned = {
        let i = frozen[0].0;
        let mut probe = space.default_configuration();
        probe.set_value(i, frozen[0].1);
        let rendered = probe.render(&space);
        rendered
            .split(", ")
            .find(|t| t.starts_with("lat.fp_sqrt="))
            .unwrap()
            .to_string()
    };
    let seen = cost.seen.lock().unwrap();
    assert!(!seen.is_empty());
    assert!(
        seen.iter().all(|r| r.contains(&pinned)),
        "a frozen dimension varied: {seen:?}"
    );
    assert!(result.best.render(&space).contains(&pinned));
    let widths: HashSet<&str> = seen
        .iter()
        .filter_map(|r| r.split(", ").find(|t| t.starts_with("width=")))
        .collect();
    assert!(widths.len() > 1, "live dimensions must still be raced");
}
