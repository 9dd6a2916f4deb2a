//! # racesim-core
//!
//! The paper's primary contribution, end to end: a **systematic
//! methodology for validating a processor simulator against real
//! hardware** (Figure 1).
//!
//! | Step | Paper | This crate |
//! |------|-------|------------|
//! | 1 | "Model based on publicly available information" | [`Platform`] presets from `racesim-sim` |
//! | 2 | "Set latency parameters using micro-benchmarks" (lmbench) | [`latency::estimate_latencies`] — pointer-chase probes run on the board |
//! | 3 | "Approximate remaining unknown parameters" | the default values of the tunable [`param space`](params::build_space) |
//! | 4 | "Tune parameters with iRace" | [`Validator::run`], driving `racesim-race` with a CPI-error cost function |
//! | 5 | "Fix error source?" | [`analysis::analyse`] — per-component residuals and concrete recommendations |
//! | 6 | "Generate tuned model" | [`ValidationOutcome::tuned`] |
//!
//! The crate also implements the paper's *model revisions*: the validation
//! arc starts from a model **without** indirect-branch prediction, GHB
//! prefetching or configurable cache hashing, and with the buggy decoder
//! ([`Revision::Initial`]); step 5's findings then motivate the *fixed*
//! model ([`Revision::Fixed`]) — reproducing the narrative of Section IV-B
//! and Figure 4.
//!
//! Figures 7 and 8 (the cost of *almost*-right configurations) are
//! produced by [`perturb::worst_within_one_step`].

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod analysis;
pub mod campaign;
pub mod diff;
pub mod fallible;
pub mod latency;
pub mod params;
pub mod perturb;
pub mod pipeline;
pub mod report;
pub mod validator;

pub use campaign::{
    board_for, core_kind, unobserved_dimensions, CampaignSpec, CampaignStack, FrozenDim,
};
pub use diff::{diff_records, CpiDiff, DiffRow, KernelCpi};
pub use fallible::LazySuiteCost;
pub use params::Revision;
pub use racesim_sim::Platform;
pub use validator::{
    BenchResult, CostMetric, PreparedSuite, ValidationError, ValidationOutcome, Validator,
    ValidatorSettings,
};
