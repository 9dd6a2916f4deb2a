//! Property: every configuration sampled from the shipped parameter
//! spaces simulates to a finite CPI, whether or not the platform
//! invariant checker flags it, and every Error the checker raises cites
//! a named lint. The tuner races such samples like any other, so a
//! flagged configuration costs budget but can never crash a campaign.

use proptest::prelude::*;
use racesim_analyzer::{platform as platform_lint, Severity};
use racesim_core::params::{apply, build_space, Revision};
use racesim_kernels::{microbench_suite, Scale};
use racesim_race::{Domain, Value};
use racesim_sim::{Platform, Simulator};
use racesim_trace::TraceBuffer;
use racesim_uarch::CoreKind;
use std::sync::OnceLock;

/// Short fixed kernels, one per behaviour the spaces tune: memory
/// hierarchy, branch prediction, and functional-unit latencies.
fn kernels() -> &'static [TraceBuffer] {
    static TRACES: OnceLock<Vec<TraceBuffer>> = OnceLock::new();
    TRACES.get_or_init(|| {
        microbench_suite(Scale::TINY)
            .iter()
            .filter(|w| ["MD", "CCa", "ED1"].contains(&w.name.as_str()))
            .map(|w| w.trace().expect("kernel traces"))
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn sampled_configs_simulate_and_errors_cite_a_named_lint(
        picks in proptest::collection::vec(any::<u64>(), 80..81),
        kind_ooo in any::<bool>(),
        fixed in any::<bool>(),
    ) {
        let kind = if kind_ooo { CoreKind::OutOfOrder } else { CoreKind::InOrder };
        let revision = if fixed { Revision::Fixed } else { Revision::Initial };
        let space = build_space(kind, revision);
        let base = match kind {
            CoreKind::InOrder => Platform::a53_like(),
            CoreKind::OutOfOrder => Platform::a72_like(),
        };

        // A uniformly random point of the space: one pick per dimension.
        let mut cfg = space.default_configuration();
        for (i, p) in space.params().iter().enumerate() {
            let pick = picks[i % picks.len()].wrapping_add(i as u64);
            let v = match &p.domain {
                Domain::Categorical(cs) => Value::Cat((pick as usize % cs.len()) as u16),
                Domain::Integer(vs) => Value::Int((pick as usize % vs.len()) as u16),
                Domain::Bool => Value::Flag(pick & 1 == 1),
            };
            cfg.set_value(i, v);
        }

        let platform = apply(&space, &cfg, &base);
        let diags = platform_lint::check(&platform);
        let first_error = diags.iter().find(|d| d.severity == Severity::Error);
        match first_error {
            None => prop_assert!(platform_lint::is_realisable(&platform)),
            Some(d) => {
                let code = d.lint.code();
                prop_assert!(
                    code.starts_with("RA") && code.len() == 5,
                    "an Error must cite a named lint, got {code:?}"
                );
            }
        }

        // Flagged or not, the sample simulates.
        let sim = Simulator::new(platform);
        prop_assert_eq!(kernels().len(), 3);
        for trace in kernels() {
            let cpi = sim.run(trace).expect("kernel simulates").cpi();
            prop_assert!(
                cpi.is_finite() && cpi > 0.0,
                "CPI {cpi} (first error: {:?})",
                first_error.map(|d| d.lint.code())
            );
        }
    }
}
