//! A small two-pass assembler with labels.
//!
//! The assembler is the main way programs are written in this project: the
//! micro-benchmark suite in `racesim-kernels` is implemented as Rust
//! functions that emit instructions through [`Asm`].
//!
//! # Example
//!
//! ```
//! use racesim_isa::{asm::Asm, Reg};
//!
//! // Sum the integers 1..=10 into x1.
//! let mut a = Asm::new();
//! a.movz(Reg::x(0), 10); // counter
//! a.movz(Reg::x(1), 0);  // accumulator
//! let top = a.label();
//! a.bind(top);
//! a.add(Reg::x(1), Reg::x(1), Reg::x(0));
//! a.subi(Reg::x(0), Reg::x(0), 1);
//! a.cbnz(Reg::x(0), top);
//! a.halt();
//! let program = a.finish();
//! assert_eq!(program.code.len(), 6);
//! ```

use crate::{
    encode::{EncodedInst, IMM_MAX, IMM_MIN},
    program::{Program, ReservedRegion, DEFAULT_DATA_BASE},
    Cond, MemWidth, Opcode, Reg,
};

/// A forward-referencable code label.
///
/// Created with [`Asm::label`], placed with [`Asm::bind`], and referenced by
/// the branch-emitting methods. Every created label must be bound exactly
/// once before [`Asm::finish`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Label(usize);

#[derive(Debug)]
struct Fixup {
    inst_idx: usize,
    label: Label,
}

/// A `movz` whose immediate is patched with a label's absolute address.
#[derive(Debug)]
struct AddrFixup {
    inst_idx: usize,
    label: Label,
}

/// A data blob of code pointers patched with label addresses.
#[derive(Debug)]
struct TableFixup {
    data_idx: usize,
    labels: Vec<Label>,
}

/// Two-pass assembler building a [`Program`].
#[derive(Debug)]
pub struct Asm {
    code: Vec<EncodedInst>,
    labels: Vec<Option<usize>>,
    fixups: Vec<Fixup>,
    addr_fixups: Vec<AddrFixup>,
    table_fixups: Vec<TableFixup>,
    data: Vec<(u64, Vec<u8>)>,
    init_regs: Vec<(u8, u64)>,
    reserved: Vec<ReservedRegion>,
    next_data: u64,
}

impl Default for Asm {
    fn default() -> Self {
        Self::new()
    }
}

impl Asm {
    /// Creates an empty assembler.
    pub fn new() -> Asm {
        Asm {
            code: Vec::new(),
            labels: Vec::new(),
            fixups: Vec::new(),
            addr_fixups: Vec::new(),
            table_fixups: Vec::new(),
            data: Vec::new(),
            init_regs: Vec::new(),
            reserved: Vec::new(),
            next_data: DEFAULT_DATA_BASE,
        }
    }

    /// Number of instructions emitted so far.
    pub fn len(&self) -> usize {
        self.code.len()
    }

    /// Whether no instructions have been emitted yet.
    pub fn is_empty(&self) -> bool {
        self.code.is_empty()
    }

    /// Creates a fresh, unbound label.
    pub fn label(&mut self) -> Label {
        self.labels.push(None);
        Label(self.labels.len() - 1)
    }

    /// Binds `label` to the current position.
    ///
    /// # Panics
    ///
    /// Panics if the label was already bound.
    pub fn bind(&mut self, label: Label) {
        let slot = &mut self.labels[label.0];
        assert!(slot.is_none(), "label bound twice");
        *slot = Some(self.code.len());
    }

    /// Creates a label already bound to the current position.
    pub fn here(&mut self) -> Label {
        let l = self.label();
        self.bind(l);
        l
    }

    fn emit(&mut self, op: Opcode, aux: u8, rd: Reg, rn: Reg, rm: Reg, imm: i64) {
        let e = EncodedInst::build(op, aux, rd, rn, rm, imm)
            .unwrap_or_else(|e| panic!("assembler: {e} for {op}"));
        self.code.push(e);
    }

    fn emit_branch(&mut self, op: Opcode, aux: u8, rd: Reg, rn: Reg, label: Label) {
        self.fixups.push(Fixup {
            inst_idx: self.code.len(),
            label,
        });
        // The immediate is patched in `finish`.
        self.emit(op, aux, rd, rn, Reg::XZR, 0);
    }

    // ---- Data segment -------------------------------------------------

    fn reserve_with(&mut self, bytes: u64, align: u64, initialized: bool) -> u64 {
        assert!(align.is_power_of_two(), "alignment must be a power of two");
        self.next_data = (self.next_data + align - 1) & !(align - 1);
        let addr = self.next_data;
        self.next_data += bytes;
        if bytes > 0 {
            self.reserved.push(ReservedRegion {
                addr,
                len: bytes,
                initialized,
            });
        }
        addr
    }

    /// Reserves `bytes` of data and returns its address, recording the
    /// region as *uninitialised*: the emulator still zero-fills it, but
    /// nothing in the program or its harness defines the contents, so
    /// static analysis will flag loads from it (the paper's
    /// uninitialised-array hazard). Use [`Asm::reserve_initialized`] for
    /// scratch arrays the harness is understood to set up beforehand.
    ///
    /// The region is aligned to `align` (which must be a power of two).
    pub fn reserve(&mut self, bytes: u64, align: u64) -> u64 {
        self.reserve_with(bytes, align, false)
    }

    /// Reserves `bytes` of data whose contents count as defined before
    /// execution — the model of a benchmark harness that initialises its
    /// working set prior to the measured region.
    ///
    /// The region is aligned to `align` (which must be a power of two).
    pub fn reserve_initialized(&mut self, bytes: u64, align: u64) -> u64 {
        self.reserve_with(bytes, align, true)
    }

    /// Reserves a region and fills it with the given bytes.
    pub fn data_bytes(&mut self, bytes: Vec<u8>, align: u64) -> u64 {
        let addr = self.reserve_with(bytes.len() as u64, align, true);
        self.data.push((addr, bytes));
        addr
    }

    /// Reserves a region and fills it with little-endian 64-bit words.
    pub fn data_u64s(&mut self, words: &[u64]) -> u64 {
        let bytes = words.iter().flat_map(|w| w.to_le_bytes()).collect();
        self.data_bytes(bytes, 8)
    }

    /// Loads the absolute address of `label` into `rd` (one `movz`, whose
    /// immediate is patched at [`Asm::finish`]).
    ///
    /// Code addresses fit the 28-bit immediate for any realistic program.
    pub fn load_label_addr(&mut self, rd: Reg, label: Label) {
        self.addr_fixups.push(AddrFixup {
            inst_idx: self.code.len(),
            label,
        });
        self.movz(rd, 0);
    }

    /// Emits a table of code pointers (8 bytes each) into the data
    /// segment and returns its address; the entries are patched with the
    /// labels' absolute addresses at [`Asm::finish`].
    ///
    /// Use for jump tables and indirect-call function tables.
    pub fn data_code_ptrs(&mut self, labels: &[Label]) -> u64 {
        let addr = self.data_bytes(vec![0u8; labels.len() * 8], 8);
        self.table_fixups.push(TableFixup {
            data_idx: self.data.len() - 1,
            labels: labels.to_vec(),
        });
        addr
    }

    // ---- Pseudo-instructions -------------------------------------------

    /// Loads an arbitrary 64-bit constant using `movz` + up to three `movk`.
    pub fn mov64(&mut self, rd: Reg, value: u64) {
        // movz covers the low 28 bits; patch any non-zero upper 16-bit
        // chunks with movk. Chunk 1 (bits 16..32) overlaps the movz payload,
        // so re-patching it is still correct.
        self.movz(rd, (value & 0xffff) as i64);
        for slot in 1..4u8 {
            let chunk = (value >> (16 * slot)) & 0xffff;
            if chunk != 0 {
                self.movk(rd, chunk as u16, slot);
            }
        }
    }

    // ---- Integer ALU ----------------------------------------------------

    /// `add rd, rn, rm`.
    pub fn add(&mut self, rd: Reg, rn: Reg, rm: Reg) {
        self.emit(Opcode::Add, 0, rd, rn, rm, 0);
    }

    /// `addi rd, rn, #imm`.
    pub fn addi(&mut self, rd: Reg, rn: Reg, imm: i64) {
        self.emit(Opcode::AddI, 0, rd, rn, Reg::XZR, imm);
    }

    /// `sub rd, rn, rm`.
    pub fn sub(&mut self, rd: Reg, rn: Reg, rm: Reg) {
        self.emit(Opcode::Sub, 0, rd, rn, rm, 0);
    }

    /// `subi rd, rn, #imm`.
    pub fn subi(&mut self, rd: Reg, rn: Reg, imm: i64) {
        self.emit(Opcode::SubI, 0, rd, rn, Reg::XZR, imm);
    }

    /// `and rd, rn, rm`.
    pub fn and(&mut self, rd: Reg, rn: Reg, rm: Reg) {
        self.emit(Opcode::And, 0, rd, rn, rm, 0);
    }

    /// `orr rd, rn, rm`.
    pub fn orr(&mut self, rd: Reg, rn: Reg, rm: Reg) {
        self.emit(Opcode::Orr, 0, rd, rn, rm, 0);
    }

    /// `eor rd, rn, rm`.
    pub fn eor(&mut self, rd: Reg, rn: Reg, rm: Reg) {
        self.emit(Opcode::Eor, 0, rd, rn, rm, 0);
    }

    /// `lsl rd, rn, #sh`.
    pub fn lsl(&mut self, rd: Reg, rn: Reg, sh: u8) {
        self.emit(Opcode::Lsl, 0, rd, rn, Reg::XZR, sh as i64);
    }

    /// `lsr rd, rn, #sh`.
    pub fn lsr(&mut self, rd: Reg, rn: Reg, sh: u8) {
        self.emit(Opcode::Lsr, 0, rd, rn, Reg::XZR, sh as i64);
    }

    /// `asr rd, rn, #sh`.
    pub fn asr(&mut self, rd: Reg, rn: Reg, sh: u8) {
        self.emit(Opcode::Asr, 0, rd, rn, Reg::XZR, sh as i64);
    }

    /// `mul rd, rn, rm`.
    pub fn mul(&mut self, rd: Reg, rn: Reg, rm: Reg) {
        self.emit(Opcode::Mul, 0, rd, rn, rm, 0);
    }

    /// `udiv rd, rn, rm`.
    pub fn udiv(&mut self, rd: Reg, rn: Reg, rm: Reg) {
        self.emit(Opcode::Udiv, 0, rd, rn, rm, 0);
    }

    /// `sdiv rd, rn, rm`.
    pub fn sdiv(&mut self, rd: Reg, rn: Reg, rm: Reg) {
        self.emit(Opcode::Sdiv, 0, rd, rn, rm, 0);
    }

    /// `movz rd, #imm` (28-bit immediate, zero-extended).
    pub fn movz(&mut self, rd: Reg, imm: i64) {
        assert!((0..=IMM_MAX).contains(&imm), "movz immediate out of range");
        self.emit(Opcode::Movz, 0, rd, Reg::XZR, Reg::XZR, imm);
    }

    /// `movk rd, #imm16, lsl #(16*slot)`.
    ///
    /// # Panics
    ///
    /// Panics if `slot > 3`.
    pub fn movk(&mut self, rd: Reg, imm16: u16, slot: u8) {
        assert!(slot <= 3, "movk slot out of range");
        self.emit(Opcode::Movk, slot, rd, rd, Reg::XZR, imm16 as i64);
    }

    /// `mov rd, rn` (alias of `orr rd, rn, xzr`).
    pub fn mov(&mut self, rd: Reg, rn: Reg) {
        self.orr(rd, rn, Reg::XZR);
    }

    /// `cmp rn, rm`.
    pub fn cmp(&mut self, rn: Reg, rm: Reg) {
        self.emit(Opcode::Cmp, 0, Reg::XZR, rn, rm, 0);
    }

    /// `cmpi rn, #imm`.
    pub fn cmpi(&mut self, rn: Reg, imm: i64) {
        self.emit(Opcode::CmpI, 0, Reg::XZR, rn, Reg::XZR, imm);
    }

    /// `csel.cond rd, rn, rm` — `rd = cond ? rn : rm`.
    pub fn csel(&mut self, cond: Cond, rd: Reg, rn: Reg, rm: Reg) {
        self.emit(Opcode::Csel, cond.bits(), rd, rn, rm, 0);
    }

    // ---- Floating point and SIMD ----------------------------------------

    /// `fadd vd, vn, vm`.
    pub fn fadd(&mut self, vd: Reg, vn: Reg, vm: Reg) {
        self.emit(Opcode::Fadd, 0, vd, vn, vm, 0);
    }

    /// `fsub vd, vn, vm`.
    pub fn fsub(&mut self, vd: Reg, vn: Reg, vm: Reg) {
        self.emit(Opcode::Fsub, 0, vd, vn, vm, 0);
    }

    /// `fmul vd, vn, vm`.
    pub fn fmul(&mut self, vd: Reg, vn: Reg, vm: Reg) {
        self.emit(Opcode::Fmul, 0, vd, vn, vm, 0);
    }

    /// `fdiv vd, vn, vm`.
    pub fn fdiv(&mut self, vd: Reg, vn: Reg, vm: Reg) {
        self.emit(Opcode::Fdiv, 0, vd, vn, vm, 0);
    }

    /// `fsqrt vd, vn`.
    pub fn fsqrt(&mut self, vd: Reg, vn: Reg) {
        self.emit(Opcode::Fsqrt, 0, vd, vn, Reg::XZR, 0);
    }

    /// `scvtf vd, rn` — signed integer to double.
    pub fn scvtf(&mut self, vd: Reg, rn: Reg) {
        self.emit(Opcode::Scvtf, 0, vd, rn, Reg::XZR, 0);
    }

    /// `fcvtzs rd, vn` — double to signed integer.
    pub fn fcvtzs(&mut self, rd: Reg, vn: Reg) {
        self.emit(Opcode::Fcvtzs, 0, rd, vn, Reg::XZR, 0);
    }

    /// `fmov vd, vn`.
    pub fn fmov(&mut self, vd: Reg, vn: Reg) {
        self.emit(Opcode::Fmov, 0, vd, vn, Reg::XZR, 0);
    }

    /// `fmovi vd, rn` — move integer bits into lane 0.
    pub fn fmovi(&mut self, vd: Reg, rn: Reg) {
        self.emit(Opcode::FmovI, 0, vd, rn, Reg::XZR, 0);
    }

    /// `vadd vd, vn, vm` — two-lane integer add.
    pub fn vadd(&mut self, vd: Reg, vn: Reg, vm: Reg) {
        self.emit(Opcode::Vadd, 0, vd, vn, vm, 0);
    }

    /// `vmul vd, vn, vm` — two-lane integer multiply.
    pub fn vmul(&mut self, vd: Reg, vn: Reg, vm: Reg) {
        self.emit(Opcode::Vmul, 0, vd, vn, vm, 0);
    }

    /// `vfadd vd, vn, vm` — two-lane double add.
    pub fn vfadd(&mut self, vd: Reg, vn: Reg, vm: Reg) {
        self.emit(Opcode::Vfadd, 0, vd, vn, vm, 0);
    }

    /// `vfmul vd, vn, vm` — two-lane double multiply.
    pub fn vfmul(&mut self, vd: Reg, vn: Reg, vm: Reg) {
        self.emit(Opcode::Vfmul, 0, vd, vn, vm, 0);
    }

    /// `vfma vd, vn, vm` — two-lane fused multiply-add.
    pub fn vfma(&mut self, vd: Reg, vn: Reg, vm: Reg) {
        self.emit(Opcode::Vfma, 0, vd, vn, vm, 0);
    }

    // ---- Memory -----------------------------------------------------------

    /// `ldr.<w> rt, [rn, rm, #imm]` — load from `rn + rm + imm`.
    pub fn ldr(&mut self, w: MemWidth, rt: Reg, rn: Reg, rm: Reg, imm: i64) {
        self.emit(Opcode::Ldr, w.bits(), rt, rn, rm, imm);
    }

    /// `str.<w> rt, [rn, rm, #imm]` — store to `rn + rm + imm`.
    pub fn str(&mut self, w: MemWidth, rt: Reg, rn: Reg, rm: Reg, imm: i64) {
        // For stores rt is a *source*; it travels in the rd field.
        self.emit(Opcode::Str, w.bits(), rt, rn, rm, imm);
    }

    /// `ldr.8b rt, [rn]` — common-case 8-byte load.
    pub fn ldr8(&mut self, rt: Reg, rn: Reg, imm: i64) {
        self.ldr(MemWidth::B8, rt, rn, Reg::XZR, imm);
    }

    /// `str.8b rt, [rn]` — common-case 8-byte store.
    pub fn str8(&mut self, rt: Reg, rn: Reg, imm: i64) {
        self.str(MemWidth::B8, rt, rn, Reg::XZR, imm);
    }

    // ---- Control flow ------------------------------------------------------

    /// `b label`.
    pub fn b(&mut self, label: Label) {
        self.emit_branch(Opcode::B, 0, Reg::XZR, Reg::XZR, label);
    }

    /// `b.cond label`.
    pub fn bcond(&mut self, cond: Cond, label: Label) {
        self.emit_branch(Opcode::Bcond, cond.bits(), Reg::XZR, Reg::XZR, label);
    }

    /// `cbz rn, label`.
    pub fn cbz(&mut self, rn: Reg, label: Label) {
        self.emit_branch(Opcode::Cbz, 0, Reg::XZR, rn, label);
    }

    /// `cbnz rn, label`.
    pub fn cbnz(&mut self, rn: Reg, label: Label) {
        self.emit_branch(Opcode::Cbnz, 0, Reg::XZR, rn, label);
    }

    /// `br rn` — indirect branch.
    pub fn br(&mut self, rn: Reg) {
        self.emit(Opcode::Br, 0, Reg::XZR, rn, Reg::XZR, 0);
    }

    /// `bl label` — direct call.
    pub fn bl(&mut self, label: Label) {
        self.emit_branch(Opcode::Bl, 0, Reg::LR, Reg::XZR, label);
    }

    /// `blr rn` — indirect call.
    pub fn blr(&mut self, rn: Reg) {
        self.emit(Opcode::Blr, 0, Reg::LR, rn, Reg::XZR, 0);
    }

    /// `ret`.
    pub fn ret(&mut self) {
        self.emit(Opcode::Ret, 0, Reg::XZR, Reg::LR, Reg::XZR, 0);
    }

    /// `nop`.
    pub fn nop(&mut self) {
        self.emit(Opcode::Nop, 0, Reg::XZR, Reg::XZR, Reg::XZR, 0);
    }

    /// `dsb` — full barrier.
    pub fn dsb(&mut self) {
        self.emit(Opcode::Dsb, 0, Reg::XZR, Reg::XZR, Reg::XZR, 0);
    }

    /// `halt` — end of emulation.
    pub fn halt(&mut self) {
        self.emit(Opcode::Halt, 0, Reg::XZR, Reg::XZR, Reg::XZR, 0);
    }

    /// Resolves all label fixups and returns the finished program.
    ///
    /// # Panics
    ///
    /// Panics if any referenced label was never bound, or a branch offset
    /// does not fit the immediate field.
    pub fn finish(self) -> Program {
        let Asm {
            mut code,
            labels,
            fixups,
            addr_fixups,
            table_fixups,
            mut data,
            init_regs,
            reserved,
            ..
        } = self;
        let code_base = crate::program::DEFAULT_CODE_BASE;
        let pc_of = |idx: usize| code_base + idx as u64 * crate::INST_BYTES;
        for f in fixups {
            let target = labels[f.label.0].expect("unbound label referenced by branch");
            let offset = target as i64 - f.inst_idx as i64;
            assert!(
                (IMM_MIN..=IMM_MAX).contains(&offset),
                "branch offset out of range"
            );
            let old = code[f.inst_idx].0;
            code[f.inst_idx] = EncodedInst(
                (old & 0x0000_000f_ffff_ffff) | (((offset as u64) & 0x0fff_ffff) << 36),
            );
        }
        for f in addr_fixups {
            let target = labels[f.label.0].expect("unbound label referenced by address load");
            let addr = pc_of(target) as i64;
            assert!(
                (0..=IMM_MAX).contains(&addr),
                "label address exceeds the movz immediate"
            );
            let old = code[f.inst_idx].0;
            code[f.inst_idx] =
                EncodedInst((old & 0x0000_000f_ffff_ffff) | (((addr as u64) & 0x0fff_ffff) << 36));
        }
        for f in table_fixups {
            let blob = &mut data[f.data_idx].1;
            for (i, l) in f.labels.iter().enumerate() {
                let target = labels[l.0].expect("unbound label referenced by pointer table");
                blob[i * 8..(i + 1) * 8].copy_from_slice(&pc_of(target).to_le_bytes());
            }
        }
        Program {
            code,
            code_base,
            data,
            init_regs,
            reserved,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn forward_and_backward_labels_resolve() {
        let mut a = Asm::new();
        let fwd = a.label();
        a.b(fwd); // idx 0 -> idx 2: offset +2
        a.nop(); // idx 1
        a.bind(fwd);
        let back = a.here(); // idx 2
        a.nop(); // idx 2 is the bind point; this nop is idx 2
        a.b(back); // idx 3 -> idx 2: offset -1
        let p = a.finish();
        assert_eq!(p.code[0].imm(), 2);
        assert_eq!(p.code[3].imm(), -1);
    }

    #[test]
    #[should_panic(expected = "unbound label")]
    fn unbound_label_panics() {
        let mut a = Asm::new();
        let l = a.label();
        a.b(l);
        let _ = a.finish();
    }

    #[test]
    #[should_panic(expected = "label bound twice")]
    fn double_bind_panics() {
        let mut a = Asm::new();
        let l = a.label();
        a.bind(l);
        a.bind(l);
    }

    #[test]
    fn data_reservation_is_aligned_and_disjoint() {
        let mut a = Asm::new();
        let r1 = a.reserve(10, 64);
        let r2 = a.reserve(8, 64);
        assert_eq!(r1 % 64, 0);
        assert_eq!(r2 % 64, 0);
        assert!(r2 >= r1 + 10);
    }

    #[test]
    fn data_words_are_little_endian() {
        let mut a = Asm::new();
        let addr = a.data_u64s(&[0x0102_0304_0506_0708]);
        let p = a.finish();
        let (at, bytes) = &p.data[0];
        assert_eq!(*at, addr);
        assert_eq!(bytes[0], 0x08);
        assert_eq!(bytes[7], 0x01);
    }

    #[test]
    fn mov64_emits_minimal_sequence() {
        let mut a = Asm::new();
        a.mov64(Reg::x(0), 0xffff); // fits movz
        let n_small = a.len();
        a.mov64(Reg::x(1), 0xdead_beef_0000_1234);
        let p = a.finish();
        assert_eq!(n_small, 1);
        // movz + movk slots 1..3 non-zero chunks: 0x0000(skip slot1? chunk1=0x0000) ...
        // value chunks: [0x1234, 0x0000, 0xbeef, 0xdead] -> movz + 2 movk.
        assert_eq!(p.code.len() - n_small, 3);
    }

    #[test]
    fn store_places_source_in_rd_field() {
        let mut a = Asm::new();
        a.str8(Reg::x(5), Reg::x(6), 16);
        let p = a.finish();
        let e = p.code[0];
        assert_eq!(e.opcode(), Some(Opcode::Str));
        assert_eq!(e.rd_bits() as usize, Reg::x(5).index());
        assert_eq!(e.rn_bits() as usize, Reg::x(6).index());
        assert_eq!(e.imm(), 16);
    }

    #[test]
    fn label_addresses_load_and_tabulate() {
        let mut a = Asm::new();
        let f1 = a.label();
        let f2 = a.label();
        a.load_label_addr(Reg::x(1), f1);
        let table = a.data_code_ptrs(&[f1, f2]);
        a.bind(f1); // idx 1
        a.nop();
        a.bind(f2); // idx 2
        a.nop();
        let p = a.finish();
        assert_eq!(p.code[0].imm() as u64, p.pc_of(1));
        let blob = p.data.iter().find(|(at, _)| *at == table).unwrap();
        let e0 = u64::from_le_bytes(blob.1[0..8].try_into().unwrap());
        let e1 = u64::from_le_bytes(blob.1[8..16].try_into().unwrap());
        assert_eq!(e0, p.pc_of(1));
        assert_eq!(e1, p.pc_of(2));
    }
}
