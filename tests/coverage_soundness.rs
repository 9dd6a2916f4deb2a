//! Soundness of the coverage matrix that freezes campaign dimensions: a
//! dimension the matrix calls unobservable for a kernel must not move
//! that kernel's simulated cycles. For every shipped kernel, every such
//! dimension and every candidate value, the test moves that one
//! dimension away from the default configuration and requires the
//! kernel's cycles to stay exactly where they were.

use racesim::core::{board_for, params, unobserved_dimensions};
use racesim::prelude::*;
use racesim::race::Domain;
use racesim::sim::SimOptions;
use racesim::trace::CompactTrace;

/// The `j`-th candidate of `domain` as written in a config file.
fn spelled(domain: &Domain, j: usize) -> String {
    match domain {
        Domain::Categorical(cs) => cs[j].clone(),
        Domain::Integer(vs) => vs[j].to_string(),
        Domain::Bool => (j == 1).to_string(),
    }
}

fn check(kind: CoreKind) -> Vec<String> {
    let board = board_for(kind);
    let settings = ValidatorSettings {
        scale: Scale::divide_by(1024),
        ..ValidatorSettings::quick(kind)
    };
    let v = Validator::new(&board, settings);
    let base = v.base_platform().expect("latency probes run");
    let decoder = v.decoder();
    let space = params::build_space(kind, Revision::Fixed);
    let defaults = space.default_configuration();
    let cycles = |cfg: &Configuration, trace: &CompactTrace| {
        let platform = params::apply(&space, cfg, &base);
        let sim = Simulator::with_decoder(platform, decoder, SimOptions::default());
        sim.run_compact(trace).expect("simulates").core.cycles
    };
    let mut unsound = Vec::new();
    for w in v.suite() {
        let trace = w.compact_trace().expect("kernel runs");
        let at_default = cycles(&defaults, &trace);
        for dim in unobserved_dimensions(&space, std::slice::from_ref(&w), &base) {
            let domain = &space.params()[dim.index].domain;
            for j in 0..domain.cardinality() {
                let mut cfg = defaults.clone();
                cfg.set_value(dim.index, domain.candidate(j));
                let moved = cycles(&cfg, &trace);
                if moved != at_default {
                    unsound.push(format!(
                        "{kind:?} {}: `{}` = {} moves cycles {at_default} -> {moved} \
                         (the matrix says it needs {})",
                        w.name,
                        space.params()[dim.index].name,
                        spelled(domain, j),
                        dim.needs
                    ));
                }
            }
        }
    }
    unsound
}

#[test]
fn a53_dimensions_the_matrix_calls_unobservable_leave_cycles_unchanged() {
    let unsound = check(CoreKind::InOrder);
    assert!(unsound.is_empty(), "{}", unsound.join("\n"));
}

#[test]
fn a72_dimensions_the_matrix_calls_unobservable_leave_cycles_unchanged() {
    let unsound = check(CoreKind::OutOfOrder);
    assert!(unsound.is_empty(), "{}", unsound.join("\n"));
}
