//! # racesim-hw
//!
//! Golden-reference "hardware" platforms — the project's substitute for
//! the paper's Firefly RK3399 board (Cortex-A53 + Cortex-A72) measured
//! with Linux `perf`.
//!
//! Real hardware is "the golden reference according to which simulator
//! accuracy can be judged". Since no board is available here, the
//! reference is a **hidden configuration of the same simulation engine**,
//! deliberately augmented with behaviours the user-facing timing model
//! does *not* capture. This reproduces both error classes from Black and
//! Shen's taxonomy that the paper targets:
//!
//! * **Specification error** — the hidden configuration sets the ~64
//!   undisclosed parameters (predictor sizing, prefetcher choice, cache
//!   hashing, MSHRs, penalties, …) to values the user does not know. The
//!   tuner's job is to recover behaviourally equivalent settings.
//! * **Abstraction error** — the reference additionally models a data TLB,
//!   OS timer interrupts, DRAM refresh, first-touch page effects on
//!   uninitialised arrays (the paper's Section IV-B observation), a
//!   branch predictor larger than any candidate offered to the tuner, and
//!   a prefetcher configuration outside the candidate grid. No point in
//!   the tunable space reproduces the reference exactly, so a residual
//!   error floor remains — as with any real board.
//!
//! The interface is `perf`-shaped: [`HardwarePlatform::measure`] returns
//! event counts ([`PerfCounters`]), never internal state.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod board;
mod counters;
mod effects;
mod faults;

pub use board::{MeasureError, ReferenceBoard};
pub use counters::PerfCounters;
pub use effects::SystemEffects;
pub use faults::{FaultPlan, FaultyBoard};

use racesim_kernels::Workload;
use racesim_trace::{CompactTrace, TraceBuffer};

/// A black-box hardware platform that can run workloads and report
/// performance counters.
pub trait HardwarePlatform: std::fmt::Debug + Send + Sync {
    /// The platform's marketing name.
    fn name(&self) -> &str;

    /// Runs a workload natively and reports its counters.
    ///
    /// # Errors
    ///
    /// Fails if the workload cannot be executed.
    fn measure(&self, workload: &Workload) -> Result<PerfCounters, MeasureError>;

    /// Measures a pre-recorded trace (the paper generates each trace once
    /// and reuses it). `uninit_data` carries the workload's
    /// uninitialised-array property; `name` seeds measurement noise.
    ///
    /// # Errors
    ///
    /// Fails if the trace cannot be replayed.
    fn measure_trace(
        &self,
        name: &str,
        trace: &TraceBuffer,
        uninit_data: bool,
    ) -> Result<PerfCounters, MeasureError>;

    /// Measures a pre-recorded trace in the compact replay form; the
    /// arguments are as for [`HardwarePlatform::measure_trace`]. The
    /// default expands the trace and calls `measure_trace`; boards that
    /// replay compact traces natively override it.
    ///
    /// # Errors
    ///
    /// Fails if the trace cannot be replayed.
    fn measure_compact(
        &self,
        name: &str,
        trace: &CompactTrace,
        uninit_data: bool,
    ) -> Result<PerfCounters, MeasureError> {
        self.measure_trace(name, &trace.to_buffer(), uninit_data)
    }
}
