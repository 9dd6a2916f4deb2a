//! Runs the ablation study over the design choices DESIGN.md calls out:
//! racing vs random vs grid search at equal budget, Friedman vs paired-t
//! elimination, and tuning on micro-benchmarks vs on the SPEC proxies.
//!
//! Its constants are fixed (see `racesim_bench::ablation`); unlike the
//! figure binaries it reads no `RACESIM_*` variable.

use racesim_bench::ablation::{self, ELIMINATION_BUDGET, SEARCH_BUDGET, WORKLOAD_BUDGET};
use racesim_bench::banner;

fn main() {
    banner(&format!(
        "Ablation: racing vs random vs grid search ({SEARCH_BUDGET} evaluations, A53 micro-benchmarks)"
    ));
    print!(
        "{}",
        ablation::table("strategy", &ablation::search_strategies())
    );

    banner(&format!(
        "Ablation: Friedman vs paired-t elimination ({ELIMINATION_BUDGET} evaluations)"
    ));
    print!(
        "{}",
        ablation::table("test", &ablation::elimination_tests())
    );

    banner(&format!(
        "Ablation: tuning on micro-benchmarks vs SPEC proxies ({WORKLOAD_BUDGET} evaluations)"
    ));
    print!(
        "{}",
        ablation::table("suite", &ablation::tuning_workloads())
    );
}
