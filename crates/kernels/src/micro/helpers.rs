//! Shared kernel-construction helpers.

use racesim_isa::{asm::Asm, Reg};

/// Loop counter register reserved by [`counted_loop`].
pub const CTR: Reg = Reg::x(28);
/// LCG state register reserved by [`lcg_setup`] / [`lcg_next`].
pub const LCG: Reg = Reg::x(20);
/// LCG multiplier register.
pub const LCG_A: Reg = Reg::x(21);
/// LCG increment register.
pub const LCG_C: Reg = Reg::x(22);

/// Emits `iters` repetitions of `body` using a counted loop on [`CTR`]
/// (2 instructions of overhead per iteration).
pub fn counted_loop(a: &mut Asm, iters: u64, body: impl FnOnce(&mut Asm)) {
    a.mov64(CTR, iters.max(1));
    let top = a.here();
    body(a);
    a.subi(CTR, CTR, 1);
    a.cbnz(CTR, top);
}

/// Initialises the in-register linear congruential generator
/// (Knuth's MMIX constants). Three registers are reserved.
pub fn lcg_setup(a: &mut Asm, seed: u64) {
    a.mov64(LCG, seed | 1);
    a.mov64(LCG_A, 6_364_136_223_846_793_005);
    a.mov64(LCG_C, 1_442_695_040_888_963_407);
}

/// Advances the LCG and leaves pseudo-random bits in [`LCG`]
/// (2 instructions).
pub fn lcg_next(a: &mut Asm) {
    a.mul(LCG, LCG, LCG_A);
    a.add(LCG, LCG, LCG_C);
}

/// Builds a pointer-chase cycle over `nodes` cache lines starting at a
/// fresh data region; returns the address of the first node. Each node's
/// first 8 bytes point at the next node. The traversal order is a
/// deterministic pseudo-random permutation so hardware prefetchers cannot
/// follow it.
///
/// # Panics
///
/// Panics if `nodes < 2` or `line` is not a non-zero multiple of 8.
pub fn build_chase(a: &mut Asm, nodes: usize, line: u64, seed: u64) -> u64 {
    assert!(nodes >= 2, "a chase needs at least two nodes");
    assert!(
        line > 0 && line.is_multiple_of(8),
        "a node must hold an aligned pointer"
    );
    // Deterministic Fisher-Yates with an xorshift generator.
    let mut order: Vec<usize> = (0..nodes).collect();
    let mut s = seed | 1;
    let mut next = move || {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        s
    };
    for i in (1..nodes).rev() {
        let j = (next() % (i as u64 + 1)) as usize;
        order.swap(i, j);
    }
    // Predict the blob's address: an empty reservation aligns the data
    // cursor without consuming space, so the following `data_bytes` with
    // the same alignment lands exactly there.
    let region = a.reserve(0, line);
    // node order[k] points at node order[k+1]; last points at first.
    let stride = line as usize;
    let mut bytes = vec![0u8; nodes * stride];
    for k in 0..nodes {
        let (from, to) = (order[k], order[(k + 1) % nodes]);
        bytes[from * stride..][..8].copy_from_slice(&(region + to as u64 * line).to_le_bytes());
    }
    let addr = a.data_bytes(bytes, line);
    debug_assert_eq!(addr, region);
    region + (order[0] as u64 * line)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::emu::record_trace;

    #[test]
    fn counted_loop_executes_exactly_iters_times() {
        let mut a = Asm::new();
        a.movz(Reg::x(1), 0);
        counted_loop(&mut a, 17, |a| {
            a.addi(Reg::x(1), Reg::x(1), 1);
        });
        a.halt();
        let p = a.finish();
        let mut m = crate::emu::Machine::new(&p);
        let mut buf = racesim_trace::TraceBuffer::new();
        m.run(10_000, &mut buf).unwrap();
        assert_eq!(m.reg(Reg::x(1)), 17);
    }

    #[test]
    fn chase_visits_every_node_once_per_lap() {
        let mut a = Asm::new();
        let head = build_chase(&mut a, 16, 64, 42);
        a.mov64(Reg::x(1), head);
        counted_loop(&mut a, 32, |a| {
            a.ldr8(Reg::x(1), Reg::x(1), 0);
        });
        a.halt();
        let p = a.finish();
        let t = record_trace(&p, 100_000).unwrap();
        // 32 loads; after 2 laps of 16 the pointer returns to head.
        let s = t.summary();
        assert_eq!(s.loads, 32);
        let mut m = crate::emu::Machine::new(&p);
        let mut buf = racesim_trace::TraceBuffer::new();
        m.run(100_000, &mut buf).unwrap();
        assert_eq!(m.reg(Reg::x(1)), head, "cycle closes");
    }

    #[test]
    fn lcg_produces_varied_bits() {
        let mut a = Asm::new();
        lcg_setup(&mut a, 7);
        // x1 accumulates XOR of 8 successive outputs' bit 17.
        a.movz(Reg::x(1), 0);
        a.movz(Reg::x(2), 0);
        counted_loop(&mut a, 64, |a| {
            lcg_next(a);
            a.lsr(Reg::x(3), LCG, 17);
            a.and(Reg::x(3), Reg::x(3), Reg::x(4)); // x4 = 1 set below
            a.add(Reg::x(1), Reg::x(1), Reg::x(3));
        });
        a.halt();
        let mut p = a.finish();
        p.init_regs.push((Reg::x(4).index() as u8, 1));
        let mut m = crate::emu::Machine::new(&p);
        let mut buf = racesim_trace::TraceBuffer::new();
        m.run(10_000, &mut buf).unwrap();
        let ones = m.reg(Reg::x(1));
        assert!(ones > 16 && ones < 48, "bit 17 is roughly balanced: {ones}");
    }
}
