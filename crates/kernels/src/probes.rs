//! lmbench-style latency probes (step 2 of the validation methodology).
//!
//! The paper: "we estimate the access time of the L1 data and instruction
//! caches in addition to the L2 cache using the lmbench micro-benchmarks,
//! and plug them into the timing models". The classic `lat_mem_rd` probe
//! is a dependent pointer chase over an array of growing size: while the
//! array fits a cache level, the per-load latency plateaus at that level's
//! load-to-use latency.

use crate::micro::helpers::{build_chase, counted_loop};
use crate::workload::{Category, Workload};
use racesim_isa::{asm::Asm, Reg};

/// A `lat_mem_rd`-style dependent pointer chase over `size_kb` KiB with
/// `line`-byte nodes.
///
/// The resulting workload executes `laps` full traversals; per-load
/// latency is `cycles / loads` once steady state is reached.
///
/// # Panics
///
/// Panics if `size_kb` is zero or smaller than two nodes.
pub fn lat_mem_rd(size_kb: u32, line: u64) -> Workload {
    assert!(size_kb > 0, "probe array must be non-empty");
    let nodes = (size_kb as u64 * 1024 / line).max(2) as usize;
    let mut a = Asm::new();
    let head = build_chase(&mut a, nodes, line, 0x11AB + size_kb as u64);
    a.mov64(Reg::x(1), head);
    // Enough laps for steady state, bounded for big arrays.
    let laps = (65_536 / nodes).clamp(4, 512) as u64;
    counted_loop(&mut a, laps * nodes as u64 / 4, |a| {
        for _ in 0..4 {
            a.ldr8(Reg::x(1), Reg::x(1), 0);
        }
    });
    a.halt();
    let expected = laps * nodes as u64 * 2;
    Workload::new(
        format!("lat_mem_rd_{size_kb}k"),
        Category::Probe,
        a.finish(),
        expected,
    )
}

/// The standard probe ladder used by the latency estimator: sizes chosen
/// to sit well inside L1, between L1 and L2, and beyond L2.
pub fn probe_ladder() -> Vec<Workload> {
    [4u32, 8, 16, 64, 128, 256, 2048, 4096]
        .iter()
        .map(|kb| lat_mem_rd(*kb, 64))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probes_run_and_chase_dependently() {
        let w = lat_mem_rd(8, 64);
        let t = w.trace().unwrap();
        let s = t.summary();
        assert!(s.loads * 2 > s.instructions, "{s:?}");
    }

    #[test]
    fn ladder_covers_l1_l2_mem() {
        let l = probe_ladder();
        assert!(l.len() >= 6);
        assert!(l.first().unwrap().name.contains("4k"));
        assert!(l.last().unwrap().name.contains("4096k"));
    }

    #[test]
    fn bigger_arrays_touch_more_lines() {
        let lines = |kb: u32| {
            lat_mem_rd(kb, 64)
                .trace()
                .unwrap()
                .records()
                .iter()
                .filter_map(|r| r.ea())
                .map(|ea| ea >> 6)
                .collect::<std::collections::HashSet<_>>()
                .len()
        };
        assert!(lines(64) > lines(4));
    }
}
