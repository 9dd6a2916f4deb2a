//! Functional emulator and trace recorder (the DynamoRIO substitute).
//!
//! The emulator executes programs with full architectural semantics —
//! register files, NZCV flags, byte-addressed paged memory — and records
//! one [`TraceRecord`] per retired instruction. Like the paper's
//! DynamoRIO-based front-end, it runs once per workload; the recorded
//! trace is then replayed through timing models arbitrarily many times.

use racesim_isa::{
    cond_flags_for_cmp, EncodedInst, Flags, MemWidth, Opcode, Program, Reg, DEFAULT_STACK_TOP,
    INST_BYTES,
};
use racesim_trace::{CompactTrace, IntMap, TraceBuffer, TraceRecord, TraceSink};
use std::fmt;
use std::io;

const PAGE_BYTES: usize = 4096;

/// Errors raised during emulation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EmuError {
    /// Control flow left the code segment.
    BadPc {
        /// The offending target address.
        pc: u64,
    },
    /// An instruction word could not be interpreted.
    BadInstruction {
        /// Program counter of the word.
        pc: u64,
    },
    /// The instruction budget was exhausted before `halt`.
    InstLimit {
        /// The limit that was hit.
        limit: u64,
    },
    /// A trace sink failed.
    Sink(String),
}

impl fmt::Display for EmuError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EmuError::BadPc { pc } => write!(f, "jump outside the code segment to {pc:#x}"),
            EmuError::BadInstruction { pc } => write!(f, "uninterpretable instruction at {pc:#x}"),
            EmuError::InstLimit { limit } => {
                write!(f, "instruction limit of {limit} reached before halt")
            }
            EmuError::Sink(e) => write!(f, "trace sink error: {e}"),
        }
    }
}

impl std::error::Error for EmuError {}

/// Sparse, paged, byte-addressed memory over a read-only data image.
///
/// A byte nobody wrote reads from the image in place; a byte outside both
/// reads as zero, and no read maps a page. The first write to a page
/// copies that page's image bytes into a private page (copy-on-write), so
/// the image itself is never mutated and a program that only reads its
/// data — the 4 MiB `lat_mem_rd` chase — never materialises it.
///
/// An access that fits in one page costs one page-map lookup, plus a walk
/// over the image's few segments when the page is unwritten. A read that
/// straddles a page boundary goes byte by byte; a write goes one
/// page-sized slice at a time. Trace recording hits this once per memory
/// instruction, so per-byte lookups would dominate campaign set-up.
#[derive(Debug, Default)]
pub struct PagedMem<'a> {
    /// `(address, bytes)` segments; a later one wins where they overlap.
    image: &'a [(u64, Vec<u8>)],
    pages: IntMap<u64, Box<[u8; PAGE_BYTES]>>,
}

/// One past the last address of a segment (`2^64` for a segment that
/// ends the address space).
fn segment_end(start: u64, bytes: &[u8]) -> u128 {
    u128::from(start) + bytes.len() as u128
}

/// Copies the bytes of `image` that fall in `[addr, addr + out.len())`
/// into `out`, segment by segment in order, leaving the others as they
/// are. The range must not wrap.
fn copy_image(image: &[(u64, Vec<u8>)], addr: u64, out: &mut [u8]) {
    let end = u128::from(addr) + out.len() as u128;
    for (start, bytes) in image {
        let lo = addr.max(*start);
        let hi = end.min(segment_end(*start, bytes));
        if u128::from(lo) < hi {
            let len = (hi - u128::from(lo)) as usize;
            out[(lo - addr) as usize..][..len]
                .copy_from_slice(&bytes[(lo - start) as usize..][..len]);
        }
    }
}

impl<'a> PagedMem<'a> {
    /// Creates an empty memory image.
    pub fn new() -> PagedMem<'a> {
        PagedMem::default()
    }

    /// A memory whose unwritten bytes read from `image`, `(address,
    /// bytes)` segments as in [`Program::data`]. Where segments overlap, a
    /// later one wins, exactly as writing them in order would leave memory.
    ///
    /// # Panics
    ///
    /// Panics if a segment runs past the top of the address space.
    pub fn with_image(image: &'a [(u64, Vec<u8>)]) -> PagedMem<'a> {
        assert!(
            image
                .iter()
                .all(|(start, bytes)| segment_end(*start, bytes) <= 1 << 64),
            "a data segment wraps past the top of the address space"
        );
        PagedMem {
            image,
            pages: IntMap::default(),
        }
    }

    fn page_mut(&mut self, page: u64) -> &mut [u8; PAGE_BYTES] {
        let image = self.image;
        self.pages.entry(page).or_insert_with(|| {
            let mut bytes = Box::new([0u8; PAGE_BYTES]);
            copy_image(image, page * PAGE_BYTES as u64, &mut bytes[..]);
            bytes
        })
    }

    /// The byte offset of `addr` in its page, if `n` bytes from `addr`
    /// stay in that page.
    fn in_page(addr: u64, n: u64) -> Option<usize> {
        let off = (addr % PAGE_BYTES as u64) as usize;
        (off + n as usize <= PAGE_BYTES).then_some(off)
    }

    /// Reads `n <= 8` bytes little-endian.
    pub fn read_le(&self, addr: u64, n: u64) -> u64 {
        let Some(off) = Self::in_page(addr, n) else {
            return (0..n).fold(0, |v, i| {
                v | self.read_le(addr.wrapping_add(i), 1) << (8 * i)
            });
        };
        let mut le = [0u8; 8];
        let out = &mut le[..n as usize];
        match self.pages.get(&(addr / PAGE_BYTES as u64)) {
            Some(page) => out.copy_from_slice(&page[off..off + n as usize]),
            None => copy_image(self.image, addr, out),
        }
        u64::from_le_bytes(le)
    }

    /// Writes `n <= 8` bytes little-endian.
    pub fn write_le(&mut self, addr: u64, n: u64, v: u64) {
        self.write_bytes(addr, &v.to_le_bytes()[..n as usize]);
    }

    /// Writes `bytes` from `addr` on, one page-sized slice at a time.
    pub fn write_bytes(&mut self, mut addr: u64, mut bytes: &[u8]) {
        while !bytes.is_empty() {
            let off = (addr % PAGE_BYTES as u64) as usize;
            let (head, rest) = bytes.split_at((PAGE_BYTES - off).min(bytes.len()));
            self.page_mut(addr / PAGE_BYTES as u64)[off..off + head.len()].copy_from_slice(head);
            addr = addr.wrapping_add(head.len() as u64);
            bytes = rest;
        }
    }

    /// Number of written pages (footprint diagnostic; image pages that
    /// were only read are not counted).
    pub fn mapped_pages(&self) -> usize {
        self.pages.len()
    }
}

/// Outcome of a completed emulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunOutcome {
    /// Dynamic instructions retired (excluding the final `halt`).
    pub instructions: u64,
}

/// The architectural machine state.
#[derive(Debug)]
pub struct Machine<'p> {
    program: &'p Program,
    x: [u64; 33],
    v: [[u64; 2]; 32],
    flags: Flags,
    /// Byte-addressed data memory, reading the program's data image in
    /// place.
    pub mem: PagedMem<'p>,
    idx: usize,
}

impl<'p> Machine<'p> {
    /// Loads a program: data image (read in place, copied a page at a
    /// time on first write), initial registers, stack pointer.
    ///
    /// # Panics
    ///
    /// Panics if a data segment runs past the top of the address space.
    pub fn new(program: &'p Program) -> Machine<'p> {
        let mut x = [0u64; 33];
        x[Reg::SP.index()] = DEFAULT_STACK_TOP;
        for &(r, val) in &program.init_regs {
            if (r as usize) < 33 {
                x[r as usize] = val;
            }
        }
        Machine {
            program,
            x,
            v: [[0; 2]; 32],
            flags: Flags::default(),
            mem: PagedMem::with_image(&program.data),
            idx: 0,
        }
    }

    fn xr(&self, r: u8) -> u64 {
        if r as usize == Reg::XZR.index() {
            0
        } else {
            self.x[r as usize]
        }
    }

    fn xw(&mut self, r: u8, v: u64) {
        let i = r as usize;
        if i != Reg::XZR.index() && i < 33 {
            self.x[i] = v;
        }
    }

    fn vr(&self, r: u8) -> [u64; 2] {
        self.v[r as usize - 33]
    }

    fn vw(&mut self, r: u8, v: [u64; 2]) {
        self.v[r as usize - 33] = v;
    }

    fn f(&self, r: u8) -> f64 {
        f64::from_bits(self.vr(r)[0])
    }

    fn fw(&mut self, r: u8, v: f64) {
        let mut lanes = self.vr(r);
        lanes[0] = v.to_bits();
        self.vw(r, lanes);
    }

    /// Current integer register value (test/diagnostic access).
    pub fn reg(&self, r: Reg) -> u64 {
        self.xr(r.index() as u8)
    }

    /// Current lane-0 FP value of a vector register.
    pub fn freg(&self, r: Reg) -> f64 {
        f64::from_bits(self.v[r.index() - 33][0])
    }

    /// Executes until `halt`, recording a trace into `sink`.
    ///
    /// # Errors
    ///
    /// Fails on control flow leaving the code segment, uninterpretable
    /// instructions, sink errors, or exceeding `limit` instructions.
    pub fn run(&mut self, limit: u64, sink: &mut dyn TraceSink) -> Result<RunOutcome, EmuError> {
        let mut executed = 0u64;
        loop {
            if self.idx >= self.program.code.len() {
                return Err(EmuError::BadPc {
                    pc: self.program.pc_of(self.idx),
                });
            }
            let word = self.program.code[self.idx];
            let pc = self.program.pc_of(self.idx);
            let op = word.opcode().ok_or(EmuError::BadInstruction { pc })?;
            if op == Opcode::Halt {
                return Ok(RunOutcome {
                    instructions: executed,
                });
            }
            if executed >= limit {
                return Err(EmuError::InstLimit { limit });
            }
            let record = self.step(op, word, pc)?;
            sink.push(record)
                .map_err(|e| EmuError::Sink(e.to_string()))?;
            executed += 1;
        }
    }

    /// Executes one instruction, returning its trace record. `self.idx`
    /// advances to the next instruction.
    fn step(&mut self, op: Opcode, word: EncodedInst, pc: u64) -> Result<TraceRecord, EmuError> {
        let rd = word.rd_bits();
        let rn = word.rn_bits();
        let rm = word.rm_bits();
        let imm = word.imm();
        let mut next = self.idx + 1;
        let mut record = TraceRecord::plain(pc, word);

        let branch_to = |this: &mut Machine<'_>, target_idx: i64| -> Result<u64, EmuError> {
            if target_idx < 0 || target_idx as usize > this.program.code.len() {
                return Err(EmuError::BadPc {
                    pc: this
                        .program
                        .code_base
                        .wrapping_add((target_idx * INST_BYTES as i64) as u64),
                });
            }
            Ok(target_idx as u64)
        };

        use Opcode::*;
        match op {
            Nop | Dsb => {}
            Halt => unreachable!("handled by run()"),
            Add => self.xw(rd, self.xr(rn).wrapping_add(self.xr(rm))),
            AddI => self.xw(rd, self.xr(rn).wrapping_add(imm as u64)),
            Sub => self.xw(rd, self.xr(rn).wrapping_sub(self.xr(rm))),
            SubI => self.xw(rd, self.xr(rn).wrapping_sub(imm as u64)),
            And => self.xw(rd, self.xr(rn) & self.xr(rm)),
            Orr => self.xw(rd, self.xr(rn) | self.xr(rm)),
            Eor => self.xw(rd, self.xr(rn) ^ self.xr(rm)),
            Lsl => self.xw(rd, self.xr(rn).wrapping_shl(imm as u32)),
            Lsr => self.xw(rd, self.xr(rn).wrapping_shr(imm as u32)),
            Asr => self.xw(rd, (self.xr(rn) as i64).wrapping_shr(imm as u32) as u64),
            Mul => self.xw(rd, self.xr(rn).wrapping_mul(self.xr(rm))),
            Udiv => {
                let d = self.xr(rm);
                self.xw(rd, self.xr(rn).checked_div(d).unwrap_or(0));
            }
            Sdiv => {
                let d = self.xr(rm) as i64;
                let n = self.xr(rn) as i64;
                self.xw(rd, if d == 0 { 0 } else { n.wrapping_div(d) as u64 });
            }
            Movz => self.xw(rd, imm as u64),
            Movk => {
                let slot = (word.aux() & 3) as u64;
                let mask = 0xffffu64 << (16 * slot);
                let v = (self.xr(rd) & !mask) | (((imm as u64) & 0xffff) << (16 * slot));
                self.xw(rd, v);
            }
            Cmp => self.flags = cond_flags_for_cmp(self.xr(rn), self.xr(rm)),
            CmpI => self.flags = cond_flags_for_cmp(self.xr(rn), imm as u64),
            Csel => {
                let c = word.cond().ok_or(EmuError::BadInstruction { pc })?;
                let v = if c.holds(self.flags) {
                    self.xr(rn)
                } else {
                    self.xr(rm)
                };
                self.xw(rd, v);
            }
            Fadd => self.fw(rd, self.f(rn) + self.f(rm)),
            Fsub => self.fw(rd, self.f(rn) - self.f(rm)),
            Fmul => self.fw(rd, self.f(rn) * self.f(rm)),
            Fdiv => self.fw(rd, self.f(rn) / self.f(rm)),
            Fsqrt => self.fw(rd, self.f(rn).sqrt()),
            Scvtf => self.fw(rd, self.xr(rn) as i64 as f64),
            Fcvtzs => {
                let v = self.f(rn);
                self.xw(rd, v as i64 as u64);
            }
            Fmov => {
                let v = self.vr(rn);
                self.vw(rd, v);
            }
            FmovI => {
                let mut lanes = self.vr(rd);
                lanes[0] = self.xr(rn);
                self.vw(rd, lanes);
            }
            Vadd => {
                let (a, b) = (self.vr(rn), self.vr(rm));
                self.vw(rd, [a[0].wrapping_add(b[0]), a[1].wrapping_add(b[1])]);
            }
            Vmul => {
                let (a, b) = (self.vr(rn), self.vr(rm));
                self.vw(rd, [a[0].wrapping_mul(b[0]), a[1].wrapping_mul(b[1])]);
            }
            Vfadd | Vfmul | Vfma => {
                let (a, b) = (self.vr(rn), self.vr(rm));
                let acc = self.vr(rd);
                let lane = |i: usize| {
                    let (x, y) = (f64::from_bits(a[i]), f64::from_bits(b[i]));
                    let z = f64::from_bits(acc[i]);
                    match op {
                        Vfadd => x + y,
                        Vfmul => x * y,
                        _ => z + x * y,
                    }
                    .to_bits()
                };
                self.vw(rd, [lane(0), lane(1)]);
            }
            Ldr => {
                let w = MemWidth::from_bits(word.aux()).ok_or(EmuError::BadInstruction { pc })?;
                let ea = self
                    .xr(rn)
                    .wrapping_add(self.xr(rm))
                    .wrapping_add(imm as u64);
                record = TraceRecord::memory(pc, word, ea);
                if w == MemWidth::B16 {
                    let lo = self.mem.read_le(ea, 8);
                    let hi = self.mem.read_le(ea + 8, 8);
                    self.vw(rd, [lo, hi]);
                } else if rd as usize >= 33 {
                    let mut lanes = self.vr(rd);
                    lanes[0] = self.mem.read_le(ea, w.bytes());
                    self.vw(rd, lanes);
                } else {
                    let v = self.mem.read_le(ea, w.bytes());
                    self.xw(rd, v);
                }
            }
            Str => {
                let w = MemWidth::from_bits(word.aux()).ok_or(EmuError::BadInstruction { pc })?;
                let ea = self
                    .xr(rn)
                    .wrapping_add(self.xr(rm))
                    .wrapping_add(imm as u64);
                record = TraceRecord::memory(pc, word, ea);
                if w == MemWidth::B16 {
                    let lanes = self.vr(rd);
                    self.mem.write_le(ea, 8, lanes[0]);
                    self.mem.write_le(ea + 8, 8, lanes[1]);
                } else if rd as usize >= 33 {
                    let lanes = self.vr(rd);
                    self.mem.write_le(ea, w.bytes(), lanes[0]);
                } else {
                    self.mem.write_le(ea, w.bytes(), self.xr(rd));
                }
            }
            B => {
                let t = branch_to(self, self.idx as i64 + imm)?;
                next = t as usize;
                record = TraceRecord::branch(pc, word, true, self.program.pc_of(next));
            }
            Bcond => {
                let c = word.cond().ok_or(EmuError::BadInstruction { pc })?;
                if c.holds(self.flags) {
                    let t = branch_to(self, self.idx as i64 + imm)?;
                    next = t as usize;
                    record = TraceRecord::branch(pc, word, true, self.program.pc_of(next));
                } else {
                    record = TraceRecord::branch(pc, word, false, 0);
                }
            }
            Cbz | Cbnz => {
                let zero = self.xr(rn) == 0;
                let take = zero == (op == Cbz);
                if take {
                    let t = branch_to(self, self.idx as i64 + imm)?;
                    next = t as usize;
                    record = TraceRecord::branch(pc, word, true, self.program.pc_of(next));
                } else {
                    record = TraceRecord::branch(pc, word, false, 0);
                }
            }
            Br | Ret => {
                let target = self.xr(rn);
                let t = self
                    .program
                    .index_of(target)
                    .ok_or(EmuError::BadPc { pc: target })?;
                next = t;
                record = TraceRecord::branch(pc, word, true, target);
            }
            Bl => {
                self.xw(Reg::LR.index() as u8, pc + INST_BYTES);
                let t = branch_to(self, self.idx as i64 + imm)?;
                next = t as usize;
                record = TraceRecord::branch(pc, word, true, self.program.pc_of(next));
            }
            Blr => {
                let target = self.xr(rn);
                self.xw(Reg::LR.index() as u8, pc + INST_BYTES);
                let t = self
                    .program
                    .index_of(target)
                    .ok_or(EmuError::BadPc { pc: target })?;
                next = t;
                record = TraceRecord::branch(pc, word, true, target);
            }
        }
        self.idx = next;
        Ok(record)
    }
}

/// Runs `program` to completion and returns its trace.
///
/// # Errors
///
/// See [`Machine::run`].
pub fn record_trace(program: &Program, limit: u64) -> Result<TraceBuffer, EmuError> {
    record_into(program, limit)
}

/// Runs `program` to completion and returns its trace in the compact
/// replay form.
///
/// # Errors
///
/// See [`Machine::run`]; a record the compact form rejects is an
/// [`EmuError::Sink`].
pub fn record_compact(program: &Program, limit: u64) -> Result<CompactTrace, EmuError> {
    let mut trace: CompactTrace = record_into(program, limit)?;
    trace.shrink_to_fit();
    Ok(trace)
}

/// Runs `program` to completion, recording into one bounded compact
/// trace: every `chunk` records, and once more at the end if any are
/// left, the trace is handed to `consume` and its records cleared (the
/// word table stays, see [`CompactTrace::clear_records`]). No more than
/// `chunk` records are held at any time.
///
/// # Errors
///
/// See [`Machine::run`]; an error from `consume` stops the run and is an
/// [`EmuError::Sink`].
pub fn record_chunks(
    program: &Program,
    limit: u64,
    chunk: usize,
    consume: &mut dyn FnMut(&CompactTrace) -> io::Result<()>,
) -> Result<(), EmuError> {
    let mut sink = ChunkSink {
        trace: CompactTrace::new(),
        chunk: chunk.max(1),
        consume,
    };
    Machine::new(program).run(limit, &mut sink)?;
    if !sink.trace.is_empty() {
        (sink.consume)(&sink.trace).map_err(|e| EmuError::Sink(e.to_string()))?;
    }
    Ok(())
}

/// The sink behind [`record_chunks`].
struct ChunkSink<'c> {
    trace: CompactTrace,
    chunk: usize,
    consume: &'c mut dyn FnMut(&CompactTrace) -> io::Result<()>,
}

impl TraceSink for ChunkSink<'_> {
    fn push(&mut self, r: TraceRecord) -> io::Result<()> {
        self.trace.push(r)?;
        if self.trace.len() >= self.chunk {
            (self.consume)(&self.trace)?;
            self.trace.clear_records();
        }
        Ok(())
    }
}

fn record_into<S: TraceSink + Default>(program: &Program, limit: u64) -> Result<S, EmuError> {
    let mut sink = S::default();
    Machine::new(program).run(limit, &mut sink)?;
    Ok(sink)
}

#[cfg(test)]
mod tests {
    use super::*;
    use racesim_isa::{asm::Asm, Cond, Reg};

    fn run_prog(f: impl FnOnce(&mut Asm)) -> (Machine<'static>, TraceBuffer) {
        let mut a = Asm::new();
        f(&mut a);
        a.halt();
        let p = Box::leak(Box::new(a.finish()));
        let mut m = Machine::new(p);
        let mut buf = TraceBuffer::new();
        m.run(1_000_000, &mut buf).expect("program runs");
        (m, buf)
    }

    #[test]
    fn arithmetic_loop_sums_correctly() {
        let (m, trace) = run_prog(|a| {
            a.movz(Reg::x(0), 10);
            a.movz(Reg::x(1), 0);
            let top = a.here();
            a.add(Reg::x(1), Reg::x(1), Reg::x(0));
            a.subi(Reg::x(0), Reg::x(0), 1);
            a.cbnz(Reg::x(0), top);
        });
        assert_eq!(m.reg(Reg::x(1)), 55);
        // 2 setup + 10 * 3 loop body.
        assert_eq!(trace.len(), 32);
        let s = trace.summary();
        assert_eq!(s.branches, 10);
        assert_eq!(s.taken_branches, 9);
    }

    #[test]
    fn memory_roundtrip_and_addressing() {
        let (m, trace) = run_prog(|a| {
            let data = a.data_u64s(&[0x1111, 0x2222, 0x3333]);
            a.mov64(Reg::x(1), data);
            a.movz(Reg::x(2), 8);
            a.ldr(
                racesim_isa::MemWidth::B8,
                Reg::x(3),
                Reg::x(1),
                Reg::x(2),
                0,
            ); // [x1+x2]
            a.ldr8(Reg::x(4), Reg::x(1), 16);
            a.add(Reg::x(5), Reg::x(3), Reg::x(4));
            a.str8(Reg::x(5), Reg::x(1), 0);
            a.ldr8(Reg::x(6), Reg::x(1), 0);
        });
        assert_eq!(m.reg(Reg::x(3)), 0x2222);
        assert_eq!(m.reg(Reg::x(4)), 0x3333);
        assert_eq!(m.reg(Reg::x(6)), 0x5555);
        assert_eq!(trace.summary().loads, 3);
        assert_eq!(trace.summary().stores, 1);
    }

    #[test]
    fn byte_and_word_widths() {
        let (m, _) = run_prog(|a| {
            let data = a.data_bytes(vec![0xAA, 0xBB, 0xCC, 0xDD, 0xEE], 8);
            a.mov64(Reg::x(1), data);
            a.ldr(racesim_isa::MemWidth::B1, Reg::x(2), Reg::x(1), Reg::XZR, 1);
            a.ldr(racesim_isa::MemWidth::B4, Reg::x(3), Reg::x(1), Reg::XZR, 0);
        });
        assert_eq!(m.reg(Reg::x(2)), 0xBB);
        assert_eq!(m.reg(Reg::x(3)), 0xDDCCBBAA);
    }

    #[test]
    fn conditionals_and_csel() {
        let (m, _) = run_prog(|a| {
            a.movz(Reg::x(1), 5);
            a.cmpi(Reg::x(1), 7);
            a.csel(Cond::Lt, Reg::x(2), Reg::x(1), Reg::XZR); // 5 < 7 -> x2 = 5
            a.csel(Cond::Ge, Reg::x(3), Reg::x(1), Reg::XZR); // else xzr -> 0
        });
        assert_eq!(m.reg(Reg::x(2)), 5);
        assert_eq!(m.reg(Reg::x(3)), 0);
    }

    #[test]
    fn floating_point_pipeline() {
        let (m, _) = run_prog(|a| {
            a.movz(Reg::x(1), 9);
            a.scvtf(Reg::v(0), Reg::x(1)); // 9.0
            a.fsqrt(Reg::v(1), Reg::v(0)); // 3.0
            a.fadd(Reg::v(2), Reg::v(1), Reg::v(0)); // 12.0
            a.fmul(Reg::v(3), Reg::v(2), Reg::v(1)); // 36.0
            a.fdiv(Reg::v(4), Reg::v(3), Reg::v(0)); // 4.0
            a.fcvtzs(Reg::x(2), Reg::v(4));
        });
        assert_eq!(m.freg(Reg::v(1)), 3.0);
        assert_eq!(m.reg(Reg::x(2)), 4);
    }

    #[test]
    fn vector_lanes() {
        let (m, _) = run_prog(|a| {
            let data = a.data_u64s(&[1.5f64.to_bits(), 2.5f64.to_bits()]);
            a.mov64(Reg::x(1), data);
            a.ldr(
                racesim_isa::MemWidth::B16,
                Reg::v(0),
                Reg::x(1),
                Reg::XZR,
                0,
            );
            a.vfadd(Reg::v(1), Reg::v(0), Reg::v(0)); // [3.0, 5.0]
            a.vfma(Reg::v(2), Reg::v(1), Reg::v(1)); // 0 + [9, 25]
        });
        let lanes = m.v[2];
        assert_eq!(f64::from_bits(lanes[0]), 9.0);
        assert_eq!(f64::from_bits(lanes[1]), 25.0);
    }

    #[test]
    fn calls_and_returns() {
        let (m, trace) = run_prog(|a| {
            let func = a.label();
            let done = a.label();
            a.movz(Reg::x(1), 1);
            a.bl(func);
            a.addi(Reg::x(1), Reg::x(1), 100); // runs after return
            a.b(done);
            a.bind(func);
            a.addi(Reg::x(1), Reg::x(1), 10);
            a.ret();
            a.bind(done);
        });
        assert_eq!(m.reg(Reg::x(1)), 111);
        assert_eq!(trace.summary().indirect_branches, 1); // the ret
    }

    #[test]
    fn indirect_branch_through_register() {
        let (m, _) = run_prog(|a| {
            let t = a.label();
            // Layout: movz(0) movz(1) br(2) poison(3) [t](4): jump to
            // base + 4 * INST_BYTES, skipping the poison write.
            a.movz(Reg::x(5), 0);
            a.movz(
                Reg::x(6),
                (racesim_isa::DEFAULT_CODE_BASE + 4 * INST_BYTES) as i64,
            );
            a.br(Reg::x(6));
            a.movz(Reg::x(5), 999); // skipped
            a.bind(t);
        });
        assert_ne!(m.reg(Reg::x(5)), 999);
    }

    #[test]
    fn division_by_zero_yields_zero() {
        let (m, _) = run_prog(|a| {
            a.movz(Reg::x(1), 42);
            a.udiv(Reg::x(2), Reg::x(1), Reg::XZR);
            a.sdiv(Reg::x(3), Reg::x(1), Reg::XZR);
        });
        assert_eq!(m.reg(Reg::x(2)), 0);
        assert_eq!(m.reg(Reg::x(3)), 0);
    }

    #[test]
    fn movk_patches_chunks() {
        let (m, _) = run_prog(|a| {
            a.mov64(Reg::x(1), 0xdead_beef_1234_5678);
        });
        assert_eq!(m.reg(Reg::x(1)), 0xdead_beef_1234_5678);
    }

    #[test]
    fn inst_limit_guards_infinite_loops() {
        let mut a = Asm::new();
        let top = a.here();
        a.b(top);
        let p = a.finish();
        let mut m = Machine::new(&p);
        let mut buf = TraceBuffer::new();
        let err = m.run(100, &mut buf).unwrap_err();
        assert_eq!(err, EmuError::InstLimit { limit: 100 });
    }

    #[test]
    fn falling_off_the_code_is_an_error() {
        let mut a = Asm::new();
        a.nop(); // no halt
        let p = a.finish();
        let mut m = Machine::new(&p);
        let mut buf = TraceBuffer::new();
        assert!(matches!(m.run(100, &mut buf), Err(EmuError::BadPc { .. })));
    }

    #[test]
    fn unmapped_memory_reads_zero() {
        let mem = PagedMem::new();
        assert_eq!(mem.read_le(0x1234_5678, 8), 0);
        assert_eq!(mem.mapped_pages(), 0);
    }
}
