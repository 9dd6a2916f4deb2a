//! A classic architecture study on top of the public simulator API:
//! how do the direction predictors compare across the control-flow
//! micro-benchmarks, and what is indirect-branch prediction worth on the
//! case-statement kernels (`CS1`, `CS3`, `CRm`)?
//!
//! Run with: `cargo run --release --example branch_predictor_study`

use racesim::prelude::*;
use racesim::uarch::branch::{DirPredictorConfig, IndirectPredictorConfig};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let kernels: Vec<Workload> = microbench_suite(Scale::TINY)
        .into_iter()
        .filter(|w| w.category == Category::ControlFlow)
        .collect();
    let traces: Vec<_> = kernels
        .iter()
        .map(|w| w.compact_trace().expect("kernels run"))
        .collect();

    let predictors: [(&str, DirPredictorConfig); 4] = [
        ("static-taken", DirPredictorConfig::StaticTaken),
        ("bimodal-4k", DirPredictorConfig::Bimodal { table_bits: 12 }),
        (
            "gshare-4k",
            DirPredictorConfig::Gshare {
                table_bits: 12,
                history_bits: 10,
            },
        ),
        (
            "tournament-4k",
            DirPredictorConfig::Tournament {
                table_bits: 12,
                history_bits: 10,
            },
        ),
    ];

    println!("branch MPKI per predictor (control-flow kernels, A53-like core):\n");
    print!("{:<10}", "kernel");
    for (name, _) in &predictors {
        print!("{name:>15}");
    }
    println!();
    for (w, t) in kernels.iter().zip(&traces) {
        print!("{:<10}", w.name);
        for (_, dir) in &predictors {
            let mut platform = Platform::a53_like();
            platform.core.branch.direction = *dir;
            let stats = Simulator::new(platform).run_compact(t)?;
            print!("{:>15.2}", stats.core.branch_mpki());
        }
        println!();
    }

    // Indirect prediction on the case-statement kernels.
    println!("\nindirect-branch support on the case/indirect kernels (CPI):\n");
    println!(
        "{:<10}{:>15}{:>15}{:>10}",
        "kernel", "btb-only", "path-history", "speedup"
    );
    for (w, t) in kernels.iter().zip(&traces) {
        if !["CS1", "CS3", "CRm", "CRd"].contains(&w.name.as_str()) {
            continue;
        }
        let run = |indirect| -> Result<f64, racesim::sim::SimError> {
            let mut platform = Platform::a53_like();
            platform.core.branch.indirect = indirect;
            Ok(Simulator::new(platform).run_compact(t)?.cpi())
        };
        let btb = run(IndirectPredictorConfig::BtbOnly)?;
        let path = run(IndirectPredictorConfig::PathHistory {
            table_bits: 10,
            history_bits: 8,
        })?;
        println!(
            "{:<10}{:>15.3}{:>15.3}{:>9.2}x",
            w.name,
            btb,
            path,
            btb / path
        );
    }
    println!(
        "\nCS1 is the kernel that exposed the missing indirect predictor in the paper \
         (Section IV-B)."
    );
    Ok(())
}
