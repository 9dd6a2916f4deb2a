//! Decoded instruction representations.

use crate::{Cond, InstClass, Opcode, Reg};
use std::fmt;

/// Maximum number of source registers a decoded instruction can carry.
pub const MAX_SRCS: usize = 4;
/// Maximum number of destination registers a decoded instruction can carry.
pub const MAX_DSTS: usize = 2;

/// Width of a memory access, in bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
#[repr(u8)]
pub enum MemWidth {
    /// 1 byte.
    B1 = 0,
    /// 2 bytes.
    B2 = 1,
    /// 4 bytes.
    B4 = 2,
    /// 8 bytes.
    B8 = 3,
    /// 16 bytes (vector register).
    B16 = 4,
}

impl MemWidth {
    /// Number of bytes accessed.
    #[inline]
    pub fn bytes(self) -> u64 {
        1 << (self as u8)
    }

    /// Decodes a width from the 4-bit auxiliary encoding field.
    pub fn from_bits(bits: u8) -> Option<MemWidth> {
        match bits {
            0 => Some(MemWidth::B1),
            1 => Some(MemWidth::B2),
            2 => Some(MemWidth::B4),
            3 => Some(MemWidth::B8),
            4 => Some(MemWidth::B16),
            _ => None,
        }
    }

    /// The 4-bit encoding of this width.
    #[inline]
    pub fn bits(self) -> u8 {
        self as u8
    }
}

impl fmt::Display for MemWidth {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}b", self.bytes())
    }
}

/// A fully decoded, position-independent instruction.
///
/// This is what the decoder library produces and what timing models inspect:
/// the timing-relevant class, explicit source and destination register lists,
/// and the decoded operand fields. The same `StaticInst` is shared by every
/// dynamic execution of the instruction (Sniper caches these per PC; so does
/// `racesim-sim`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StaticInst {
    /// The opcode.
    pub opcode: Opcode,
    /// The timing class (derived from the opcode).
    pub class: InstClass,
    /// Condition code, for `b.cond` and `csel`.
    pub cond: Option<Cond>,
    /// Memory access width, for loads and stores.
    pub width: Option<MemWidth>,
    /// Source registers (first `num_srcs` entries are valid).
    pub srcs: [Reg; MAX_SRCS],
    /// Number of valid source registers.
    pub num_srcs: u8,
    /// Destination registers (first `num_dsts` entries are valid).
    pub dsts: [Reg; MAX_DSTS],
    /// Number of valid destination registers.
    pub num_dsts: u8,
    /// Decoded immediate (branch offset in instructions, ALU immediate,
    /// memory displacement or `movk` payload, depending on the opcode).
    pub imm: i64,
    /// `movk` slot (which 16-bit chunk the immediate patches).
    pub movk_slot: u8,
}

impl StaticInst {
    /// The valid source registers.
    #[inline]
    pub fn sources(&self) -> &[Reg] {
        &self.srcs[..self.num_srcs as usize]
    }

    /// The valid destination registers.
    #[inline]
    pub fn dests(&self) -> &[Reg] {
        &self.dsts[..self.num_dsts as usize]
    }

    /// Whether the instruction is a load or store.
    #[inline]
    pub fn is_memory(&self) -> bool {
        self.class.is_memory()
    }

    /// Whether the instruction is any control transfer.
    #[inline]
    pub fn is_branch(&self) -> bool {
        self.class.is_branch()
    }

    /// Whether the instruction is a store.
    #[inline]
    pub fn is_store(&self) -> bool {
        self.class == InstClass::Store
    }
}

/// One dynamically executed instruction: a [`StaticInst`] plus the
/// execution context the front-end observed.
///
/// This is the unit that flows through traces into the timing models —
/// the equivalent of one SIFT record in Sniper: program counter, effective
/// address for memory operations, and the architecturally resolved branch
/// outcome.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DynInst {
    /// Program counter of this instruction.
    pub pc: u64,
    /// The decoded static instruction.
    pub stat: StaticInst,
    /// Effective virtual address (memory instructions only; 0 otherwise).
    pub ea: u64,
    /// Whether a branch was architecturally taken (branches only).
    pub taken: bool,
    /// Architectural branch target (taken branches only; 0 otherwise).
    pub target: u64,
}

impl DynInst {
    /// The address of the next sequential instruction.
    #[inline]
    pub fn fallthrough(&self) -> u64 {
        self.pc + crate::INST_BYTES
    }

    /// The address control flow actually continued at.
    #[inline]
    pub fn next_pc(&self) -> u64 {
        if self.stat.is_branch() && self.taken {
            self.target
        } else {
            self.fallthrough()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn nop_stat() -> StaticInst {
        StaticInst {
            opcode: Opcode::Nop,
            class: InstClass::Nop,
            cond: None,
            width: None,
            srcs: [Reg::XZR; MAX_SRCS],
            num_srcs: 0,
            dsts: [Reg::XZR; MAX_DSTS],
            num_dsts: 0,
            imm: 0,
            movk_slot: 0,
        }
    }

    #[test]
    fn mem_width_bytes() {
        assert_eq!(MemWidth::B1.bytes(), 1);
        assert_eq!(MemWidth::B2.bytes(), 2);
        assert_eq!(MemWidth::B4.bytes(), 4);
        assert_eq!(MemWidth::B8.bytes(), 8);
        assert_eq!(MemWidth::B16.bytes(), 16);
    }

    #[test]
    fn mem_width_bits_roundtrip() {
        for w in [
            MemWidth::B1,
            MemWidth::B2,
            MemWidth::B4,
            MemWidth::B8,
            MemWidth::B16,
        ] {
            assert_eq!(MemWidth::from_bits(w.bits()), Some(w));
        }
        assert_eq!(MemWidth::from_bits(5), None);
    }

    #[test]
    fn source_and_dest_slices_respect_counts() {
        let mut s = nop_stat();
        s.srcs[0] = Reg::x(1);
        s.srcs[1] = Reg::x(2);
        s.num_srcs = 2;
        s.dsts[0] = Reg::x(3);
        s.num_dsts = 1;
        assert_eq!(s.sources(), &[Reg::x(1), Reg::x(2)]);
        assert_eq!(s.dests(), &[Reg::x(3)]);
    }

    #[test]
    fn next_pc_follows_taken_branches() {
        let mut s = nop_stat();
        s.opcode = Opcode::B;
        s.class = InstClass::BranchUncond;
        let d = DynInst {
            pc: 0x1000,
            stat: s,
            ea: 0,
            taken: true,
            target: 0x2000,
        };
        assert_eq!(d.next_pc(), 0x2000);
        let d2 = DynInst { taken: false, ..d };
        assert_eq!(d2.next_pc(), 0x1004);
        let plain = DynInst {
            pc: 0x1000,
            stat: nop_stat(),
            ea: 0,
            taken: false,
            target: 0,
        };
        assert_eq!(plain.next_pc(), plain.fallthrough());
    }
}
