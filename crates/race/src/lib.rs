//! # racesim-race
//!
//! A from-scratch Rust implementation of **iterated racing** — the
//! algorithm behind the `irace` R package (López-Ibáñez et al., 2016;
//! Birattari et al., GECCO 2002) that the paper uses to tune unknown
//! simulator parameters against hardware measurements.
//!
//! The three steps of Figure 2, exactly as the paper describes them:
//!
//! 1. **Sample** new configurations from per-parameter distributions
//!    (biased toward surviving "elite" configurations in later
//!    iterations);
//! 2. **Race** them across the benchmark instances, applying statistical
//!    tests after a warm-up number of instances to eliminate
//!    configurations "that perform worse than at least one other
//!    configuration";
//! 3. **Update** the sampling distributions toward the survivors, and
//!    repeat until the evaluation budget is exhausted.
//!
//! The implementation is deterministic under a seed, evaluates
//! configurations in parallel (the paper runs irace on a 24-context host),
//! and ships two baselines — [`RandomSearch`] and [`GridSearch`] — used by
//! the ablation benchmarks.
//!
//! # Example
//!
//! ```
//! use racesim_race::{CostFn, Configuration, ParamSpace, RacingTuner, Tuner, TunerSettings};
//!
//! // Recover x = 13 by racing over noisy "instances".
//! let mut space = ParamSpace::new();
//! space.add_integer("x", &[1, 5, 9, 13, 17, 21]);
//!
//! struct Quadratic;
//! impl CostFn for Quadratic {
//!     fn cost(&self, cfg: &Configuration, space: &ParamSpace, instance: usize) -> f64 {
//!         let x = cfg.integer(space, "x") as f64;
//!         (x - 13.0).powi(2) + (instance as f64 * 0.01)
//!     }
//! }
//!
//! let tuner = RacingTuner::new(TunerSettings {
//!     budget: 300,
//!     seed: 42,
//!     ..TunerSettings::default()
//! });
//! let result = tuner.tune(&space, &Quadratic, 10);
//! assert_eq!(result.best.integer(&space, "x"), 13);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod baseline;
mod cache;
mod checkpoint;
mod error;
mod model;
mod param;
mod race;
pub mod replay;
mod tuner;

pub use baseline::{GridSearch, RandomSearch};
pub use cache::CostCache;
pub use checkpoint::{CheckpointError, TunerCheckpoint};
pub use error::{EvalError, Quarantine, RetryPolicy, Watchdog};
pub use model::SamplingModel;
pub use param::{Configuration, Domain, Param, ParamSpace, Value};
pub use race::{
    eval_with_retry, race, EliminationTest, EvalDispatch, RaceContext, RaceLogEntry, RaceResult,
    RaceSettings,
};
pub use replay::{
    compare, Divergence, EliminationRecord, EndRecord, IterationRecord, RecordedCampaign,
    ReplayReport, Verdict,
};
pub use tuner::{
    CostFn, IterationSummary, RacingTuner, TryCostFn, TuneResult, Tuner, TunerSettings,
};
