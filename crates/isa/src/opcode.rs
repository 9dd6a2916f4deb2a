//! Opcode definitions.

use crate::InstClass;
use std::fmt;

/// Operation codes of the micro-ISA.
///
/// The set is intentionally small but covers every behaviour class the
/// timing models distinguish: simple/complex integer arithmetic, FP
/// add/mul/div/sqrt pipes, int↔FP conversion, two-lane SIMD, loads/stores,
/// and the full branch taxonomy (conditional, unconditional, indirect,
/// call, return).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum Opcode {
    /// No operation.
    Nop = 0,
    /// `add rd, rn, rm` — integer addition.
    Add,
    /// `addi rd, rn, #imm` — integer addition with immediate.
    AddI,
    /// `sub rd, rn, rm` — integer subtraction.
    Sub,
    /// `subi rd, rn, #imm` — integer subtraction with immediate.
    SubI,
    /// `and rd, rn, rm` — bitwise and.
    And,
    /// `orr rd, rn, rm` — bitwise or.
    Orr,
    /// `eor rd, rn, rm` — bitwise exclusive or.
    Eor,
    /// `lsl rd, rn, #imm` — logical shift left by immediate.
    Lsl,
    /// `lsr rd, rn, #imm` — logical shift right by immediate.
    Lsr,
    /// `asr rd, rn, #imm` — arithmetic shift right by immediate.
    Asr,
    /// `mul rd, rn, rm` — integer multiply.
    Mul,
    /// `udiv rd, rn, rm` — unsigned integer divide (x/0 = 0, as AArch64).
    Udiv,
    /// `sdiv rd, rn, rm` — signed integer divide (x/0 = 0).
    Sdiv,
    /// `movz rd, #imm` — move zero-extended 28-bit immediate.
    Movz,
    /// `movk rd, #imm16, lsl #(16*slot)` — insert 16-bit immediate at slot.
    Movk,
    /// `cmp rn, rm` — compare registers, set NZCV.
    Cmp,
    /// `cmpi rn, #imm` — compare register with immediate, set NZCV.
    CmpI,
    /// `csel.cond rd, rn, rm` — conditional select.
    Csel,
    /// `fadd vd, vn, vm` — scalar double-precision add (lane 0).
    Fadd,
    /// `fsub vd, vn, vm` — scalar double-precision subtract.
    Fsub,
    /// `fmul vd, vn, vm` — scalar double-precision multiply.
    Fmul,
    /// `fdiv vd, vn, vm` — scalar double-precision divide.
    Fdiv,
    /// `fsqrt vd, vn` — scalar double-precision square root.
    Fsqrt,
    /// `scvtf vd, rn` — signed 64-bit integer to double conversion.
    Scvtf,
    /// `fcvtzs rd, vn` — double to signed 64-bit integer, round to zero.
    Fcvtzs,
    /// `fmov vd, vn` — vector register move.
    Fmov,
    /// `fmovi vd, rn` — move integer register bits into lane 0.
    FmovI,
    /// `vadd vd, vn, vm` — two-lane integer add.
    Vadd,
    /// `vmul vd, vn, vm` — two-lane integer multiply.
    Vmul,
    /// `vfadd vd, vn, vm` — two-lane double-precision add.
    Vfadd,
    /// `vfmul vd, vn, vm` — two-lane double-precision multiply.
    Vfmul,
    /// `vfma vd, vn, vm` — two-lane fused multiply-add (`vd += vn * vm`).
    Vfma,
    /// `ldr.<size> rt, [rn, rm, #imm]` — load (size from the width field).
    Ldr,
    /// `str.<size> rt, [rn, rm, #imm]` — store.
    Str,
    /// `b #imm` — unconditional direct branch.
    B,
    /// `b.cond #imm` — conditional direct branch on NZCV.
    Bcond,
    /// `cbz rn, #imm` — branch if register is zero.
    Cbz,
    /// `cbnz rn, #imm` — branch if register is non-zero.
    Cbnz,
    /// `br rn` — indirect branch to register.
    Br,
    /// `bl #imm` — direct call, writes return address to `x30`.
    Bl,
    /// `blr rn` — indirect call, writes return address to `x30`.
    Blr,
    /// `ret` — return to the address in `x30`.
    Ret,
    /// `dsb` — full barrier; drains the store buffer in timing models.
    Dsb,
    /// `halt` — stops emulation; never appears in hardware traces.
    Halt,
}

impl Opcode {
    /// All opcodes, in encoding order.
    pub const ALL: [Opcode; 45] = [
        Opcode::Nop,
        Opcode::Add,
        Opcode::AddI,
        Opcode::Sub,
        Opcode::SubI,
        Opcode::And,
        Opcode::Orr,
        Opcode::Eor,
        Opcode::Lsl,
        Opcode::Lsr,
        Opcode::Asr,
        Opcode::Mul,
        Opcode::Udiv,
        Opcode::Sdiv,
        Opcode::Movz,
        Opcode::Movk,
        Opcode::Cmp,
        Opcode::CmpI,
        Opcode::Csel,
        Opcode::Fadd,
        Opcode::Fsub,
        Opcode::Fmul,
        Opcode::Fdiv,
        Opcode::Fsqrt,
        Opcode::Scvtf,
        Opcode::Fcvtzs,
        Opcode::Fmov,
        Opcode::FmovI,
        Opcode::Vadd,
        Opcode::Vmul,
        Opcode::Vfadd,
        Opcode::Vfmul,
        Opcode::Vfma,
        Opcode::Ldr,
        Opcode::Str,
        Opcode::B,
        Opcode::Bcond,
        Opcode::Cbz,
        Opcode::Cbnz,
        Opcode::Br,
        Opcode::Bl,
        Opcode::Blr,
        Opcode::Ret,
        Opcode::Dsb,
        Opcode::Halt,
    ];

    /// Decodes an opcode from its byte encoding.
    pub fn from_bits(bits: u8) -> Option<Opcode> {
        Self::ALL.get(bits as usize).copied()
    }

    /// The byte encoding of this opcode.
    pub fn bits(self) -> u8 {
        self as u8
    }

    /// The timing class instructions with this opcode belong to.
    pub fn class(self) -> InstClass {
        use Opcode::*;
        match self {
            Nop => InstClass::Nop,
            Add | AddI | Sub | SubI | And | Orr | Eor | Lsl | Lsr | Asr | Movz | Movk | Cmp
            | CmpI | Csel => InstClass::IntAlu,
            Mul => InstClass::IntMul,
            Udiv | Sdiv => InstClass::IntDiv,
            Fadd | Fsub => InstClass::FpAdd,
            Fmul => InstClass::FpMul,
            Fdiv => InstClass::FpDiv,
            Fsqrt => InstClass::FpSqrt,
            Scvtf | Fcvtzs => InstClass::FpCvt,
            Fmov | FmovI => InstClass::FpMov,
            Vadd => InstClass::SimdAlu,
            Vmul => InstClass::SimdMul,
            Vfadd => InstClass::SimdFpAdd,
            Vfmul => InstClass::SimdFpMul,
            Vfma => InstClass::SimdFma,
            Ldr => InstClass::Load,
            Str => InstClass::Store,
            B => InstClass::BranchUncond,
            Bcond | Cbz | Cbnz => InstClass::BranchCond,
            Br => InstClass::BranchIndirect,
            Bl | Blr => InstClass::BranchCall,
            Ret => InstClass::BranchRet,
            Dsb => InstClass::Barrier,
            Halt => InstClass::Halt,
        }
    }

    /// Whether this opcode is any kind of control transfer.
    pub fn is_branch(self) -> bool {
        self.class().is_branch()
    }

    /// The lowercase mnemonic of the opcode.
    pub fn mnemonic(self) -> &'static str {
        use Opcode::*;
        match self {
            Nop => "nop",
            Add => "add",
            AddI => "addi",
            Sub => "sub",
            SubI => "subi",
            And => "and",
            Orr => "orr",
            Eor => "eor",
            Lsl => "lsl",
            Lsr => "lsr",
            Asr => "asr",
            Mul => "mul",
            Udiv => "udiv",
            Sdiv => "sdiv",
            Movz => "movz",
            Movk => "movk",
            Cmp => "cmp",
            CmpI => "cmpi",
            Csel => "csel",
            Fadd => "fadd",
            Fsub => "fsub",
            Fmul => "fmul",
            Fdiv => "fdiv",
            Fsqrt => "fsqrt",
            Scvtf => "scvtf",
            Fcvtzs => "fcvtzs",
            Fmov => "fmov",
            FmovI => "fmovi",
            Vadd => "vadd",
            Vmul => "vmul",
            Vfadd => "vfadd",
            Vfmul => "vfmul",
            Vfma => "vfma",
            Ldr => "ldr",
            Str => "str",
            B => "b",
            Bcond => "b.cond",
            Cbz => "cbz",
            Cbnz => "cbnz",
            Br => "br",
            Bl => "bl",
            Blr => "blr",
            Ret => "ret",
            Dsb => "dsb",
            Halt => "halt",
        }
    }
}

impl fmt::Display for Opcode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.mnemonic())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bits_roundtrip_for_all_opcodes() {
        for (i, op) in Opcode::ALL.iter().enumerate() {
            assert_eq!(op.bits() as usize, i);
            assert_eq!(Opcode::from_bits(op.bits()), Some(*op));
        }
        assert_eq!(Opcode::from_bits(Opcode::ALL.len() as u8), None);
    }

    #[test]
    fn branch_classification() {
        assert!(Opcode::B.is_branch());
        assert!(Opcode::Bcond.is_branch());
        assert!(Opcode::Br.is_branch());
        assert!(Opcode::Bl.is_branch());
        assert!(Opcode::Ret.is_branch());
        assert!(!Opcode::Add.is_branch());
        assert!(!Opcode::Ldr.is_branch());
    }

    #[test]
    fn mnemonics_are_unique() {
        let mut seen = std::collections::HashSet::new();
        for op in Opcode::ALL {
            assert!(seen.insert(op.mnemonic()), "duplicate {}", op.mnemonic());
        }
    }
}
