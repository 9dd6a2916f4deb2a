//! `perf`-style event counters.

/// Performance counters reported by a hardware platform, mirroring the
/// `perf` events the paper collects ("the number of dynamically executed
/// instructions as well as the total number of cycles to calculate overall
/// application CPI").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PerfCounters {
    /// Retired instructions.
    pub instructions: u64,
    /// Elapsed core cycles.
    pub cycles: u64,
    /// Retired loads.
    pub loads: u64,
    /// Branch mispredictions.
    pub branch_misses: u64,
    /// L1 data-cache misses.
    pub l1d_misses: u64,
    /// Last-level cache misses.
    pub l2_misses: u64,
}

impl PerfCounters {
    /// Cycles per instruction.
    ///
    /// # Panics
    ///
    /// Panics if no instructions were counted.
    pub fn cpi(&self) -> f64 {
        assert!(self.instructions > 0, "no instructions measured");
        self.cycles as f64 / self.instructions as f64
    }

    /// Branch mispredictions per kilo-instruction.
    pub fn branch_mpki(&self) -> f64 {
        if self.instructions == 0 {
            0.0
        } else {
            1000.0 * self.branch_misses as f64 / self.instructions as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ratios() {
        let c = PerfCounters {
            instructions: 1000,
            cycles: 1500,
            loads: 0,
            branch_misses: 5,
            l1d_misses: 0,
            l2_misses: 0,
        };
        assert!((c.cpi() - 1.5).abs() < 1e-12);
        assert!((c.branch_mpki() - 5.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "no instructions")]
    fn cpi_requires_instructions() {
        let c = PerfCounters {
            instructions: 0,
            cycles: 1,
            loads: 0,
            branch_misses: 0,
            l1d_misses: 0,
            l2_misses: 0,
        };
        let _ = c.cpi();
    }
}
