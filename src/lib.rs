//! # racesim
//!
//! **Racing to hardware-validated simulation** — a full Rust
//! reproduction of Adileh et al., *"Racing to Hardware-Validated
//! Simulation"* (ISPASS 2019).
//!
//! The paper proposes a systematic methodology for validating processor
//! simulators against real hardware: measure targeted micro-benchmarks on
//! the machine, then let a machine-learning **iterated racing** algorithm
//! (irace) search the simulator's undisclosed configuration parameters
//! until the CPI error is minimised, using per-component residuals to
//! also uncover *modelling* bugs (missing indirect-branch prediction,
//! decoder-library dependence bugs, missing prefetchers/hashing).
//!
//! This workspace rebuilds the entire stack from scratch:
//!
//! * [`isa`]/[`decoder`]/[`trace`] — an AArch64-like micro-ISA, a decoder
//!   library (with optional "Capstone-like" dependence bugs), and the
//!   in-memory traces every simulation replays;
//! * [`kernels`] — all 40 micro-benchmarks of the paper's Table I, the
//!   lmbench-style latency probes, 11 SPEC CPU2017 proxy workloads
//!   (Table II), and the functional emulator that records their traces;
//! * [`mem`]/[`uarch`]/[`sim`] — the Sniper-ARM-equivalent timing models:
//!   caches with hashing/prefetching/MSHRs/victim buffers, branch
//!   predictor zoo, in-order (Cortex-A53-like) and out-of-order
//!   (Cortex-A72-like) cores, and the trace-driven simulator driver;
//! * [`hw`] — the "Firefly board": a golden reference with a hidden
//!   configuration plus system effects no user model captures;
//! * [`stats`]/[`race`] — Friedman/Wilcoxon/t statistics and the iterated
//!   racing tuner with random/grid baselines;
//! * [`telemetry`] — low-overhead metrics (atomic counters, gauges,
//!   log-bucketed histograms) and the structured JSONL campaign journal
//!   behind `racesim tune --telemetry` / `racesim report`;
//! * [`core`] — the methodology itself: latency estimation, the ~60
//!   undisclosed-parameter schema, racing orchestration, per-component
//!   error analysis and the close-to-optimum perturbation study.
//!
//! # Quickstart
//!
//! ```no_run
//! use racesim::prelude::*;
//!
//! let board = ReferenceBoard::firefly_a53();
//! let validator = Validator::new(&board, ValidatorSettings::quick(CoreKind::InOrder));
//! let outcome = validator.run()?;
//! println!(
//!     "mean CPI error: {:.1}% untuned -> {:.1}% tuned",
//!     outcome.untuned_mean_error(),
//!     outcome.tuned_mean_error()
//! );
//! # Ok::<(), racesim::core::ValidationError>(())
//! ```

#![warn(missing_docs)]

pub use racesim_core as core;
pub use racesim_decoder as decoder;
pub use racesim_hw as hw;
pub use racesim_isa as isa;
pub use racesim_kernels as kernels;
pub use racesim_mem as mem;
pub use racesim_race as race;
pub use racesim_sim as sim;
pub use racesim_stats as stats;
pub use racesim_telemetry as telemetry;
pub use racesim_trace as trace;
pub use racesim_uarch as uarch;

/// The most common imports, for examples and downstream users.
pub mod prelude {
    pub use racesim_core::{
        analysis, diff, latency, params, perturb, report, CampaignSpec, Revision,
        ValidationOutcome, Validator, ValidatorSettings,
    };
    pub use racesim_hw::{HardwarePlatform, PerfCounters, ReferenceBoard};
    pub use racesim_kernels::{microbench_suite, spec_suite, Category, Scale, Workload};
    pub use racesim_race::{Configuration, CostFn, ParamSpace, RacingTuner, Tuner, TunerSettings};
    pub use racesim_sim::{Platform, SimStats, Simulator};
    pub use racesim_uarch::CoreKind;
}
