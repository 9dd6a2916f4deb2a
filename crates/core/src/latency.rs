//! Step 2: latency estimation with lmbench-style probes.
//!
//! "We estimate the access time of the L1 data and instruction caches in
//! addition to the L2 cache using the lmbench micro-benchmarks, and plug
//! them into the timing models."
//!
//! The estimator runs `lat_mem_rd`-style dependent pointer chases of
//! growing footprint **on the hardware platform** and reads the load-to-use
//! latency off the plateaus: an array inside the L1 exposes the L1
//! latency, between L1 and L2 the L2 latency, and beyond the L2 the DRAM
//! latency (inflated by TLB effects on real hardware — an honest source
//! of estimation error the tuner later corrects for).

use racesim_hw::{HardwarePlatform, MeasureError};
use racesim_kernels::probes;
use racesim_sim::Platform;

/// Estimated load-to-use latencies, in cycles.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LatencyEstimates {
    /// L1D hit latency.
    pub l1d: u64,
    /// Additional L2 latency beyond the L1 lookup.
    pub l2: u64,
    /// Additional DRAM latency beyond the L2 lookup.
    pub dram: u64,
}

/// Per-load latency of one probe on the platform.
fn probe_latency(hw: &dyn HardwarePlatform, size_kb: u32) -> Result<f64, MeasureError> {
    let w = probes::lat_mem_rd(size_kb, 64);
    // The board measures the chase as it runs it, so its trace is never
    // stored whole: the probe costs its data image and nothing more.
    let counters = hw.measure(&w)?;
    // The probe is four dependent loads plus two loop instructions per
    // iteration; the loop overhead dual-issues under the loads, so
    // cycles/load converges on the load-to-use latency.
    Ok(counters.cycles as f64 / counters.loads as f64)
}

/// Runs the probe ladder on the platform and derives the three latency
/// estimates.
///
/// # Errors
///
/// Propagates measurement failures from the platform.
pub fn estimate_latencies(hw: &dyn HardwarePlatform) -> Result<LatencyEstimates, MeasureError> {
    // Footprints chosen to sit well inside L1 (8 KiB), well inside L2 but
    // beyond L1 (128 KiB), and beyond L2 (4 MiB).
    let l1 = probe_latency(hw, 8)?;
    let l2 = probe_latency(hw, 128)?;
    let mem = probe_latency(hw, 4096)?;
    let l1d = l1.round().max(1.0) as u64;
    let l2_extra = (l2 - l1).round().max(1.0) as u64;
    let dram_extra = (mem - l2).round().max(1.0) as u64;
    Ok(LatencyEstimates {
        l1d,
        l2: l2_extra,
        dram: dram_extra,
    })
}

/// Plugs the estimates into a platform (step 2's output feeding step 3).
pub fn apply_estimates(platform: &mut Platform, est: &LatencyEstimates) {
    platform.mem.l1d.latency = est.l1d;
    platform.mem.l2.latency = est.l2;
    platform.mem.dram.latency = est.dram;
}

#[cfg(test)]
mod tests {
    use super::*;
    use racesim_hw::ReferenceBoard;

    #[test]
    fn ladder_is_monotone_and_plausible() {
        let hw = ReferenceBoard::firefly_a53();
        let l1 = probe_latency(&hw, 8).unwrap();
        let l2 = probe_latency(&hw, 128).unwrap();
        let mem = probe_latency(&hw, 4096).unwrap();
        assert!(l1 < l2, "L1 {l1} < L2 {l2}");
        assert!(l2 < mem, "L2 {l2} < mem {mem}");
        assert!((2.0..=8.0).contains(&l1), "L1 load-to-use {l1}");
    }

    #[test]
    fn estimates_land_near_the_hidden_truth() {
        // The hidden A53 has l1d=3; estimates may be off by a little —
        // that is the realistic estimation error the paper accepts.
        let hw = ReferenceBoard::firefly_a53();
        let est = estimate_latencies(&hw).unwrap();
        assert!(
            (2..=6).contains(&est.l1d),
            "L1 estimate: {} cycles",
            est.l1d
        );
        assert!((8..=40).contains(&est.l2), "L2 estimate: {}", est.l2);
        assert!(
            (80..=400).contains(&est.dram),
            "DRAM estimate: {}",
            est.dram
        );
        // The exact figures every campaign starts from.
        let exact = |l1d, l2, dram| LatencyEstimates { l1d, l2, dram };
        assert_eq!(est, exact(3, 23, 202));
        let a72 = estimate_latencies(&ReferenceBoard::firefly_a72()).unwrap();
        assert_eq!(a72, exact(4, 28, 221));
    }

    #[test]
    fn estimates_apply_to_a_platform() {
        let mut p = Platform::a53_like();
        let est = LatencyEstimates {
            l1d: 4,
            l2: 19,
            dram: 200,
        };
        apply_estimates(&mut p, &est);
        assert_eq!(p.mem.l1d.latency, 4);
        assert_eq!(p.mem.l2.latency, 19);
        assert_eq!(p.mem.dram.latency, 200);
    }
}
