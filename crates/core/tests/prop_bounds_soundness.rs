//! Property test: the static CPI bounds engine is *sound* — every
//! simulated CPI lands inside the kernel's static interval, for random
//! counted-loop kernels and random sampled configurations alike.
//!
//! This is the contract `racesim bounds` and lint RA601–603 rest on: an
//! interval a simulated CPI can escape reports a bound that does not
//! hold. The generator deliberately produces the shapes the abstract
//! interpreter special-cases — self-feeding dependence chains, multi-
//! instruction recurrence cycles through repeatedly-written registers,
//! and independent streams — by drawing destinations and sources from a
//! small register pool.

use proptest::prelude::*;
use racesim_analyzer::bounds::{BoundsOptions, KernelBounds};
use racesim_core::params::{apply, build_space};
use racesim_core::Revision;
use racesim_isa::asm::Asm;
use racesim_isa::Reg;
use racesim_kernels::{microbench_suite_initialized, Category, Scale, Workload};
use racesim_race::SamplingModel;
use racesim_sim::{Platform, Simulator};
use racesim_uarch::CoreKind;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// One random body instruction over a 6-integer / 4-vector register
/// pool. Collisions between destinations and sources are the point:
/// they produce chains and cross-register recurrence cycles.
#[derive(Debug, Clone, Copy)]
enum Op {
    Add(u8, u8, u8),
    Addi(u8, u8),
    Mul(u8, u8, u8),
    Fadd(u8, u8, u8),
    Fmul(u8, u8, u8),
    Scvtf(u8, u8),
    Fcvtzs(u8, u8),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    let x = 0..6u8;
    let v = 0..4u8;
    prop_oneof![
        (x.clone(), x.clone(), x.clone()).prop_map(|(d, n, m)| Op::Add(d, n, m)),
        (x.clone(), x.clone()).prop_map(|(d, n)| Op::Addi(d, n)),
        (x.clone(), x.clone(), x.clone()).prop_map(|(d, n, m)| Op::Mul(d, n, m)),
        (v.clone(), v.clone(), v.clone()).prop_map(|(d, n, m)| Op::Fadd(d, n, m)),
        (v.clone(), v.clone(), v.clone()).prop_map(|(d, n, m)| Op::Fmul(d, n, m)),
        (v.clone(), x.clone()).prop_map(|(d, n)| Op::Scvtf(d, n)),
        (x, v).prop_map(|(d, n)| Op::Fcvtzs(d, n)),
    ]
}

/// Builds a runnable counted-loop kernel from a random body. Registers
/// x1..=x6 hold small integers and v0..=v3 hold small floats so the
/// arithmetic stays finite for the whole run.
fn build_kernel(body: &[Op], trips: u64) -> Workload {
    let mut a = Asm::new();
    for k in 0..6u8 {
        a.movz(Reg::x(1 + k), i64::from(k) + 1);
    }
    for k in 0..4u8 {
        a.scvtf(Reg::v(k), Reg::x(1 + k));
    }
    // The counted-loop idiom the IR's trip-count analysis recognises:
    // dedicated counter, subtract-and-branch back edge.
    a.mov64(Reg::x(28), trips.max(1));
    let top = a.here();
    for op in body {
        match *op {
            Op::Add(d, n, m) => a.add(Reg::x(1 + d), Reg::x(1 + n), Reg::x(1 + m)),
            Op::Addi(d, n) => a.addi(Reg::x(1 + d), Reg::x(1 + n), 1),
            Op::Mul(d, n, m) => a.mul(Reg::x(1 + d), Reg::x(1 + n), Reg::x(1 + m)),
            Op::Fadd(d, n, m) => a.fadd(Reg::v(d), Reg::v(n), Reg::v(m)),
            Op::Fmul(d, n, m) => a.fmul(Reg::v(d), Reg::v(n), Reg::v(m)),
            Op::Scvtf(d, n) => a.scvtf(Reg::v(d), Reg::x(1 + n)),
            Op::Fcvtzs(d, n) => a.fcvtzs(Reg::x(1 + d), Reg::v(n)),
        }
    }
    a.subi(Reg::x(28), Reg::x(28), 1);
    a.cbnz(Reg::x(28), top);
    a.halt();
    let expected = (body.len() as u64 + 2) * trips;
    Workload::new("prop-kernel", Category::Execution, a.finish(), expected)
}

/// Simulates `w` on `platform` and asserts the CPI lands inside the
/// kernel's static interval.
fn assert_sound(w: &Workload, platform: &Platform) {
    let kb = KernelBounds::build(&w.name, &w.program, &BoundsOptions::default());
    let iv = kb.cpi_interval(platform);
    let trace = w.trace().expect("generated kernels emulate cleanly");
    let sim = Simulator::new(platform.clone());
    let stats = sim.run(&trace).expect("generated kernels simulate");
    let cpi = stats.cpi();
    assert!(
        iv.contains(cpi),
        "static bounds violated on {}: simulated CPI {cpi} outside {iv}",
        w.name
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random kernels x random in-order configurations.
    #[test]
    fn random_kernels_simulate_inside_their_interval(
        body in proptest::collection::vec(op_strategy(), 1..12),
        trips in 4u64..96,
        cfg_seed in any::<u64>(),
    ) {
        let w = build_kernel(&body, trips);
        let space = build_space(CoreKind::InOrder, Revision::Fixed);
        let model = SamplingModel::new(&space);
        let mut rng = StdRng::seed_from_u64(cfg_seed);
        let cfg = model.sample(&space, &mut rng);
        let platform = apply(&space, &cfg, &Platform::a53_like());
        assert_sound(&w, &platform);
    }

}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The shipped microbenchmark suite x random in-order
    /// configurations: the exact kernels `racesim bounds` and lint
    /// RA601–603 report on.
    #[test]
    fn shipped_suite_simulates_inside_its_intervals(cfg_seed in any::<u64>()) {
        let space = build_space(CoreKind::InOrder, Revision::Fixed);
        let model = SamplingModel::new(&space);
        let mut rng = StdRng::seed_from_u64(cfg_seed);
        let cfg = model.sample(&space, &mut rng);
        let platform = apply(&space, &cfg, &Platform::a53_like());
        for w in microbench_suite_initialized(Scale::TINY) {
            assert_sound(&w, &platform);
        }
    }
}
