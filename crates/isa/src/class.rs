//! Timing classes.

use std::fmt;

/// The timing class of an instruction.
///
/// Timing models key functional-unit assignment, execution latency and
/// issue constraints on this class, not on the concrete [`Opcode`]
/// (mirroring how Sniper's contention model groups micro-operations).
///
/// [`Opcode`]: crate::Opcode
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
#[repr(u8)]
pub enum InstClass {
    /// Simple single-cycle integer ALU operation.
    IntAlu = 0,
    /// Integer multiply.
    IntMul,
    /// Integer divide (iterative unit).
    IntDiv,
    /// Scalar floating-point add/subtract.
    FpAdd,
    /// Scalar floating-point multiply.
    FpMul,
    /// Scalar floating-point divide.
    FpDiv,
    /// Scalar floating-point square root.
    FpSqrt,
    /// Int ↔ FP conversion.
    FpCvt,
    /// FP/SIMD register move.
    FpMov,
    /// SIMD integer ALU operation.
    SimdAlu,
    /// SIMD integer multiply.
    SimdMul,
    /// SIMD floating-point add.
    SimdFpAdd,
    /// SIMD floating-point multiply.
    SimdFpMul,
    /// SIMD fused multiply-add.
    SimdFma,
    /// Memory load.
    Load,
    /// Memory store.
    Store,
    /// Conditional direct branch.
    BranchCond,
    /// Unconditional direct branch.
    BranchUncond,
    /// Indirect branch through a register.
    BranchIndirect,
    /// Call (direct or indirect) writing the link register.
    BranchCall,
    /// Return through the link register.
    BranchRet,
    /// Memory barrier.
    Barrier,
    /// No-operation.
    Nop,
    /// Emulation terminator; never reaches timing models.
    Halt,
}

impl InstClass {
    /// Number of distinct classes (for table sizing).
    pub const COUNT: usize = 24;

    /// All classes, in encoding order.
    pub const ALL: [InstClass; Self::COUNT] = [
        InstClass::IntAlu,
        InstClass::IntMul,
        InstClass::IntDiv,
        InstClass::FpAdd,
        InstClass::FpMul,
        InstClass::FpDiv,
        InstClass::FpSqrt,
        InstClass::FpCvt,
        InstClass::FpMov,
        InstClass::SimdAlu,
        InstClass::SimdMul,
        InstClass::SimdFpAdd,
        InstClass::SimdFpMul,
        InstClass::SimdFma,
        InstClass::Load,
        InstClass::Store,
        InstClass::BranchCond,
        InstClass::BranchUncond,
        InstClass::BranchIndirect,
        InstClass::BranchCall,
        InstClass::BranchRet,
        InstClass::Barrier,
        InstClass::Nop,
        InstClass::Halt,
    ];

    /// Dense index of this class, in `0..InstClass::COUNT`.
    #[inline]
    pub fn index(self) -> usize {
        self as usize
    }

    /// Whether this class is any control transfer.
    #[inline]
    pub fn is_branch(self) -> bool {
        matches!(
            self,
            InstClass::BranchCond
                | InstClass::BranchUncond
                | InstClass::BranchIndirect
                | InstClass::BranchCall
                | InstClass::BranchRet
        )
    }

    /// Whether this class accesses data memory.
    #[inline]
    pub fn is_memory(self) -> bool {
        matches!(self, InstClass::Load | InstClass::Store)
    }

    /// Whether this class executes on the FP/SIMD pipes.
    #[inline]
    pub fn is_fp_or_simd(self) -> bool {
        matches!(
            self,
            InstClass::FpAdd
                | InstClass::FpMul
                | InstClass::FpDiv
                | InstClass::FpSqrt
                | InstClass::FpCvt
                | InstClass::FpMov
                | InstClass::SimdAlu
                | InstClass::SimdMul
                | InstClass::SimdFpAdd
                | InstClass::SimdFpMul
                | InstClass::SimdFma
        )
    }

    /// Whether the branch target comes from a register (not the encoding).
    #[inline]
    pub fn is_indirect_branch(self) -> bool {
        matches!(self, InstClass::BranchIndirect | InstClass::BranchRet)
    }
}

impl fmt::Display for InstClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            InstClass::IntAlu => "int-alu",
            InstClass::IntMul => "int-mul",
            InstClass::IntDiv => "int-div",
            InstClass::FpAdd => "fp-add",
            InstClass::FpMul => "fp-mul",
            InstClass::FpDiv => "fp-div",
            InstClass::FpSqrt => "fp-sqrt",
            InstClass::FpCvt => "fp-cvt",
            InstClass::FpMov => "fp-mov",
            InstClass::SimdAlu => "simd-alu",
            InstClass::SimdMul => "simd-mul",
            InstClass::SimdFpAdd => "simd-fp-add",
            InstClass::SimdFpMul => "simd-fp-mul",
            InstClass::SimdFma => "simd-fma",
            InstClass::Load => "load",
            InstClass::Store => "store",
            InstClass::BranchCond => "branch-cond",
            InstClass::BranchUncond => "branch-uncond",
            InstClass::BranchIndirect => "branch-indirect",
            InstClass::BranchCall => "branch-call",
            InstClass::BranchRet => "branch-ret",
            InstClass::Barrier => "barrier",
            InstClass::Nop => "nop",
            InstClass::Halt => "halt",
        };
        f.write_str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_is_dense() {
        for (i, c) in InstClass::ALL.iter().enumerate() {
            assert_eq!(c.index(), i);
        }
    }

    #[test]
    fn predicates_partition_sanely() {
        for c in InstClass::ALL {
            // No class is simultaneously a branch and a memory op.
            assert!(!(c.is_branch() && c.is_memory()), "{c}");
            // FP/SIMD classes are neither branches nor memory ops.
            if c.is_fp_or_simd() {
                assert!(!c.is_branch() && !c.is_memory(), "{c}");
            }
        }
        assert!(InstClass::BranchRet.is_indirect_branch());
        assert!(InstClass::BranchIndirect.is_indirect_branch());
        assert!(!InstClass::BranchCond.is_indirect_branch());
    }
}
