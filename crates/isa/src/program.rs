//! Whole-program container.

use crate::EncodedInst;

/// Default base address for code.
pub const DEFAULT_CODE_BASE: u64 = 0x0000_1000;
/// Default base address for static data.
pub const DEFAULT_DATA_BASE: u64 = 0x1000_0000;
/// Default initial stack pointer (stacks grow down).
pub const DEFAULT_STACK_TOP: u64 = 0x7fff_0000;

/// A data-segment region carved out by the assembler, with provenance:
/// whether the benchmark harness is understood to have initialised it
/// before the measured region starts.
///
/// Regions filled with an explicit data image (`data_bytes`, `data_u64s`,
/// pointer tables) are always `initialized`. Regions that are merely
/// reserved come in two flavours: `Asm::reserve_initialized` models an
/// array the harness memsets before measuring, while plain `Asm::reserve`
/// leaves the array uninitialised — the hazard the paper hit with "a
/// couple memory-intensive micro-benchmarks \[that\] access an
/// uninitialized array". Static analysis keys off this flag.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReservedRegion {
    /// First virtual address of the region.
    pub addr: u64,
    /// Length in bytes.
    pub len: u64,
    /// Whether the region's contents are defined before execution starts.
    pub initialized: bool,
}

impl ReservedRegion {
    /// Whether `addr` falls inside this region.
    #[inline]
    pub fn contains(&self, addr: u64) -> bool {
        addr >= self.addr && addr - self.addr < self.len
    }
}

/// A complete executable program: code, initial data image and initial
/// register values.
///
/// Programs are produced by the assembler ([`crate::asm::Asm`]) or by the
/// workload generators in `racesim-kernels`, and consumed by the functional
/// front-end that records instruction traces.
#[derive(Debug, Clone, PartialEq)]
pub struct Program {
    /// Encoded instructions, laid out contiguously from [`Program::code_base`].
    pub code: Vec<EncodedInst>,
    /// Virtual address of the first instruction.
    pub code_base: u64,
    /// Initial data image: `(virtual address, bytes)` pairs.
    pub data: Vec<(u64, Vec<u8>)>,
    /// Initial integer register values: `(register index, value)` pairs.
    ///
    /// Registers are identified by [`crate::Reg::index`]; the stack pointer
    /// is initialised to [`DEFAULT_STACK_TOP`] unless overridden here.
    pub init_regs: Vec<(u8, u64)>,
    /// Data-segment regions the assembler carved out, with their
    /// initialisation provenance (see [`ReservedRegion`]).
    pub reserved: Vec<ReservedRegion>,
}

impl Program {
    /// Creates an empty program at the default code base.
    pub fn new(code: Vec<EncodedInst>) -> Program {
        Program {
            code,
            code_base: DEFAULT_CODE_BASE,
            data: Vec::new(),
            init_regs: Vec::new(),
            reserved: Vec::new(),
        }
    }

    /// Marks every reserved region as initialised — the paper's remedy of
    /// "initializing the arrays prior to simulation".
    pub fn mark_all_initialized(&mut self) {
        for r in &mut self.reserved {
            r.initialized = true;
        }
    }

    /// The virtual address of instruction `idx`.
    #[inline]
    pub fn pc_of(&self, idx: usize) -> u64 {
        self.code_base + idx as u64 * crate::INST_BYTES
    }

    /// The instruction index for a virtual address, if it is in range and
    /// correctly aligned.
    #[inline]
    pub fn index_of(&self, pc: u64) -> Option<usize> {
        let off = pc.checked_sub(self.code_base)?;
        if off % crate::INST_BYTES != 0 {
            return None;
        }
        let idx = (off / crate::INST_BYTES) as usize;
        (idx < self.code.len()).then_some(idx)
    }

    /// Total footprint of the code segment, in bytes, as seen by the
    /// instruction cache.
    #[inline]
    pub fn code_bytes(&self) -> u64 {
        self.code.len() as u64 * crate::INST_BYTES
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pc_index_roundtrip() {
        let p = Program::new(vec![EncodedInst(0); 8]);
        for i in 0..8 {
            assert_eq!(p.index_of(p.pc_of(i)), Some(i));
        }
        assert_eq!(p.index_of(p.code_base + 8 * crate::INST_BYTES), None);
        assert_eq!(p.index_of(p.code_base + 2), None, "misaligned");
        assert_eq!(p.index_of(p.code_base - 4), None, "below base");
    }

    #[test]
    fn code_bytes_counts_architectural_size() {
        let p = Program::new(vec![EncodedInst(0); 10]);
        assert_eq!(p.code_bytes(), 40);
    }
}
