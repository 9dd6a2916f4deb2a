//! Workload descriptors.

use crate::emu::{record_chunks, record_compact, record_trace, EmuError};
use racesim_isa::Program;
use racesim_trace::{CompactTrace, TraceBuffer};
use std::fmt;
use std::io;

/// The five micro-benchmark categories of the paper's Table I, plus the
/// SPEC proxies and latency probes this project adds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Category {
    /// Memory operations stressing various levels of the hierarchy.
    MemoryHierarchy,
    /// Control-flow benchmarks stressing the branch unit.
    ControlFlow,
    /// Data-parallel and floating-point operations.
    DataParallel,
    /// Execution-unit stress with inter-instruction dependencies.
    Execution,
    /// Store-intensive operations.
    StoreIntensive,
    /// SPEC CPU2017 proxy workloads (validation set).
    SpecProxy,
    /// lmbench-style latency probes (step 2 of the methodology).
    Probe,
}

impl fmt::Display for Category {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Category::MemoryHierarchy => "memory",
            Category::ControlFlow => "control",
            Category::DataParallel => "data-parallel",
            Category::Execution => "execution",
            Category::StoreIntensive => "store",
            Category::SpecProxy => "spec",
            Category::Probe => "probe",
        })
    }
}

/// How far a workload's dynamic instruction count is scaled down from the
/// paper's Table I / Table II values.
///
/// The paper simulates the full counts (up to 66 M instructions per
/// micro-benchmark and billions for SPEC); scaling keeps tuning runs
/// tractable while preserving each kernel's behaviour, since every kernel
/// reaches steady state within a few thousand iterations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Scale {
    divisor: u64,
}

impl Scale {
    /// The paper's full dynamic instruction counts.
    ///
    /// Note: at full scale the largest kernel (`MIP`, 66 M instructions)
    /// needs roughly 2.6 GiB as a [`TraceBuffer`] of 40-byte records;
    /// record it with [`Workload::compact_trace`] (a few bytes a record)
    /// or choose a larger divisor on memory-constrained hosts.
    pub const FULL: Scale = Scale { divisor: 1 };
    /// 1/128 of the paper's counts — the default for benchmarking.
    pub const DEFAULT: Scale = Scale { divisor: 128 };
    /// 1/2048 of the paper's counts — for unit tests and CI.
    pub const TINY: Scale = Scale { divisor: 2048 };

    /// A custom divisor (>= 1).
    pub fn divide_by(divisor: u64) -> Scale {
        Scale {
            divisor: divisor.max(1),
        }
    }

    /// Scales a Table-I dynamic instruction target, with a floor that
    /// keeps even tiny kernels meaningful.
    pub fn apply(&self, target: u64) -> u64 {
        (target / self.divisor).max(512)
    }

    /// The divisor this scale applies (for recording a campaign's scale
    /// in a journal so a replay can reconstruct it).
    pub fn divisor(&self) -> u64 {
        self.divisor
    }
}

impl Default for Scale {
    fn default() -> Scale {
        Scale::DEFAULT
    }
}

/// A runnable workload: a program plus metadata.
#[derive(Debug, Clone)]
pub struct Workload {
    /// Workload name (Table I / Table II naming).
    pub name: String,
    /// Category.
    pub category: Category,
    /// The program to execute.
    pub program: Program,
    /// Emulation budget (dynamic instructions) before declaring a runaway.
    pub inst_limit: u64,
    /// Whether the kernel deliberately reads uninitialised memory — the
    /// hazard the paper hit with "a couple memory-intensive
    /// micro-benchmarks \[that\] access an uninitialized array".
    pub uninit_data: bool,
}

impl Workload {
    /// Creates a workload with a limit comfortably above `expected_insts`.
    pub fn new(
        name: impl Into<String>,
        category: Category,
        program: Program,
        expected_insts: u64,
    ) -> Workload {
        Workload {
            name: name.into(),
            category,
            program,
            inst_limit: expected_insts.saturating_mul(4).max(1 << 16),
            uninit_data: false,
        }
    }

    /// Marks the workload as touching uninitialised data.
    pub fn with_uninit_data(mut self) -> Workload {
        self.uninit_data = true;
        self
    }

    /// Executes the workload and records its instruction trace.
    ///
    /// # Errors
    ///
    /// Propagates emulation failures (which indicate a kernel bug).
    pub fn trace(&self) -> Result<TraceBuffer, EmuError> {
        record_trace(&self.program, self.inst_limit)
    }

    /// Executes the workload and records its trace in the compact form
    /// every simulation replays.
    ///
    /// # Errors
    ///
    /// Propagates emulation failures (which indicate a kernel bug).
    pub fn compact_trace(&self) -> Result<CompactTrace, EmuError> {
        record_compact(&self.program, self.inst_limit)
    }

    /// Executes the workload and hands its compact trace to `consume` a
    /// piece at a time, at most `chunk` records each, so the whole trace
    /// is never held; see [`crate::emu::record_chunks`].
    ///
    /// # Errors
    ///
    /// Propagates emulation failures; an error from `consume` stops the
    /// run as an [`EmuError::Sink`].
    pub fn record_chunks(
        &self,
        chunk: usize,
        consume: &mut dyn FnMut(&CompactTrace) -> io::Result<()>,
    ) -> Result<(), EmuError> {
        record_chunks(&self.program, self.inst_limit, chunk, consume)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_applies_floor_and_divisor() {
        assert_eq!(Scale::FULL.apply(1000), 1000);
        assert_eq!(Scale::divide_by(10).apply(100_000), 10_000);
        assert_eq!(Scale::TINY.apply(4000), 512, "floor kicks in");
        assert_eq!(Scale::divide_by(0).apply(100), 512, "divisor clamped");
    }

    #[test]
    fn shipped_traces_compact_to_about_a_byte_a_record() {
        let micro = crate::microbench_suite(Scale::TINY);
        let mut suite = micro.clone();
        suite.extend(crate::microbench_suite_initialized(Scale::TINY));
        suite.extend(crate::spec_suite(Scale::TINY));
        for w in &suite {
            let compact = w.compact_trace().unwrap();
            assert_eq!(compact.escapes().len(), 1, "{}", w.name);
            let per_record = compact.heap_bytes() as f64 / compact.len() as f64;
            assert!(per_record <= 4.0, "{}: {per_record:.2} B/record", w.name);
            let trace = w.trace().unwrap();
            assert!(
                compact.records().eq(trace.iter().copied()),
                "{}: compact trace does not expand to the recorded trace",
                w.name
            );
        }
        // The micro suite's footprint, pinned: its 219,116 records take
        // 0.91 bytes each, most of it the code map (2 bytes per static
        // instruction, however often it runs). Storing a 2-byte op per
        // record again would more than triple it.
        let (records, bytes) = micro.iter().fold((0, 0), |(n, b), w| {
            let t = w.compact_trace().unwrap();
            (n + t.len(), b + t.heap_bytes())
        });
        assert_eq!((records, bytes), (219_116, 199_407));
    }

    #[test]
    fn categories_display() {
        assert_eq!(Category::MemoryHierarchy.to_string(), "memory");
        assert_eq!(Category::SpecProxy.to_string(), "spec");
    }
}
