//! Validate the out-of-order (Cortex-A72-like) model, then check how the
//! tuned configuration generalises to the SPEC CPU2017 proxy workloads —
//! the paper's train-on-microbenchmarks / test-on-SPEC protocol
//! (Figures 5 and 6).
//!
//! Run with: `cargo run --release --example tune_a72`

use racesim::core::validator::PreparedSuite;
use racesim::prelude::*;
use racesim::sim::{SimOptions, Simulator};
use racesim_decoder::Decoder;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let board = ReferenceBoard::firefly_a72();
    println!("board: {}", board.name());

    let mut settings = ValidatorSettings::quick(CoreKind::OutOfOrder);
    settings.tuner.budget = 1_500;
    settings.tuner.threads = std::thread::available_parallelism()?.get();
    let validator = Validator::new(&board, settings);

    println!("tuning the out-of-order model on the micro-benchmark suite...");
    let outcome = validator.run()?;
    println!(
        "micro-benchmarks: {:.1}% untuned -> {:.1}% tuned",
        outcome.untuned_mean_error(),
        outcome.tuned_mean_error()
    );

    // Validation set: the SPEC proxies, never seen during tuning.
    println!("\nevaluating the tuned model on the SPEC CPU2017 proxies...");
    let spec = spec_suite(Scale::TINY);
    let prepared = PreparedSuite::prepare(&spec, &board)?;
    let sim = Simulator::with_decoder(outcome.tuned.clone(), Decoder::new(), SimOptions::default());

    let mut rows = Vec::new();
    let mut total = 0.0;
    for i in 0..prepared.len() {
        let stats = sim.run_compact(&prepared.traces[i])?;
        let hw_cpi = prepared.hw[i].cpi();
        let err = 100.0 * ((stats.cpi() - hw_cpi) / hw_cpi).abs();
        total += err;
        rows.push((prepared.names[i].clone(), err));
    }
    println!("\nper-application CPI error (tuned model, SPEC proxies):");
    print!("{}", racesim::core::report::bar_chart(&rows, 40, "%"));
    println!(
        "\naverage SPEC CPI error: {:.1}%  (the paper reports ~15% for the A72)",
        total / prepared.len() as f64
    );
    Ok(())
}
