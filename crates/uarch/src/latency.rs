//! Execution latencies per timing class.

use racesim_isa::InstClass;

/// Execution latency, in cycles, for every instruction class.
///
/// These are precisely the "timing … of the arithmetic instruction
/// execution units" the paper tunes when the FP/data-parallel
/// micro-benchmarks expose modelling errors. Memory latencies live in the
/// cache configs; branch resolution latency lives in the branch config.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LatencyTable {
    /// Simple integer ALU ops.
    pub int_alu: u64,
    /// Integer multiply.
    pub int_mul: u64,
    /// Integer divide (also the blocking time when divides are unpipelined).
    pub int_div: u64,
    /// Scalar FP add/sub.
    pub fp_add: u64,
    /// Scalar FP multiply.
    pub fp_mul: u64,
    /// Scalar FP divide.
    pub fp_div: u64,
    /// Scalar FP square root.
    pub fp_sqrt: u64,
    /// Int ↔ FP conversions.
    pub fp_cvt: u64,
    /// FP/SIMD register moves.
    pub fp_mov: u64,
    /// SIMD integer ALU.
    pub simd_alu: u64,
    /// SIMD integer multiply.
    pub simd_mul: u64,
    /// SIMD FP add.
    pub simd_fp_add: u64,
    /// SIMD FP multiply.
    pub simd_fp_mul: u64,
    /// SIMD fused multiply-add.
    pub simd_fma: u64,
}

impl LatencyTable {
    /// Latencies approximating the Cortex-A53 (from its software
    /// optimisation guidance and the TRM).
    pub fn a53_like() -> LatencyTable {
        LatencyTable {
            int_alu: 1,
            int_mul: 3,
            int_div: 12,
            fp_add: 4,
            fp_mul: 4,
            fp_div: 22,
            fp_sqrt: 22,
            fp_cvt: 4,
            fp_mov: 2,
            simd_alu: 2,
            simd_mul: 4,
            simd_fp_add: 4,
            simd_fp_mul: 4,
            simd_fma: 8,
        }
    }

    /// Latencies approximating the Cortex-A72.
    pub fn a72_like() -> LatencyTable {
        LatencyTable {
            int_alu: 1,
            int_mul: 3,
            int_div: 10,
            fp_add: 3,
            fp_mul: 3,
            fp_div: 17,
            fp_sqrt: 17,
            fp_cvt: 3,
            fp_mov: 1,
            simd_alu: 2,
            simd_mul: 4,
            simd_fp_add: 3,
            simd_fp_mul: 3,
            simd_fma: 7,
        }
    }

    /// The execution latency for a class.
    ///
    /// Memory classes return 0 (their latency comes from the hierarchy);
    /// branches resolve in 1 cycle; nops/barriers take a cycle to pass the
    /// pipe.
    pub fn of(&self, class: InstClass) -> u64 {
        use InstClass::*;
        match class {
            IntAlu => self.int_alu,
            IntMul => self.int_mul,
            IntDiv => self.int_div,
            FpAdd => self.fp_add,
            FpMul => self.fp_mul,
            FpDiv => self.fp_div,
            FpSqrt => self.fp_sqrt,
            FpCvt => self.fp_cvt,
            FpMov => self.fp_mov,
            SimdAlu => self.simd_alu,
            SimdMul => self.simd_mul,
            SimdFpAdd => self.simd_fp_add,
            SimdFpMul => self.simd_fp_mul,
            SimdFma => self.simd_fma,
            Load | Store => 0,
            BranchCond | BranchUncond | BranchIndirect | BranchCall | BranchRet => 1,
            Barrier | Nop | Halt => 1,
        }
    }
}

impl Default for LatencyTable {
    fn default() -> LatencyTable {
        LatencyTable::a53_like()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lookup_covers_every_class() {
        let t = LatencyTable::a53_like();
        for c in InstClass::ALL {
            // No class may have an absurd latency; memory classes are 0.
            let l = t.of(c);
            if c.is_memory() {
                assert_eq!(l, 0, "{c}");
            } else {
                assert!((1..=64).contains(&l), "{c}: {l}");
            }
        }
    }

    #[test]
    fn a72_is_generally_faster_on_fp() {
        let a53 = LatencyTable::a53_like();
        let a72 = LatencyTable::a72_like();
        assert!(a72.fp_add < a53.fp_add);
        assert!(a72.fp_div < a53.fp_div);
    }
}
