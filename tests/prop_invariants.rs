//! Cross-crate property tests on core invariants.

use proptest::prelude::*;
use racesim::decoder::Decoder;
use racesim::isa::{asm::Asm, Reg};
use racesim::prelude::*;
use racesim::sim::SimOptions;
use racesim::trace::{CompactTrace, TraceBuffer, TraceRecord, TraceSink};

/// Builds a random but well-formed trace over a handful of static
/// instructions: control flow mostly follows the previous record (taken
/// and not-taken branches, loads and stores), with random jumps — some
/// into a relocated copy of the code — as pc discontinuities.
fn arb_trace() -> impl Strategy<Value = TraceBuffer> {
    // Static program: add, load, store, plus a conditional branch target.
    let mut a = Asm::new();
    a.addi(Reg::x(1), Reg::x(1), 1); // 0
    a.ldr8(Reg::x(2), Reg::x(3), 0); // 1
    a.str8(Reg::x(2), Reg::x(4), 0); // 2
    a.cmpi(Reg::x(1), 5); // 3
    let l = a.here();
    a.bcond(racesim::isa::Cond::Ne, l); // 4
    let p = a.finish();

    (
        proptest::collection::vec((0usize..5, 0u64..1 << 20, any::<bool>(), 0u8..8), 1..400),
        Just(p),
    )
        .prop_map(|(steps, p)| {
            // The code is also "mapped" at this offset.
            const RELOCATED: u64 = 1 << 40;
            let mut t = TraceBuffer::new();
            let mut next_pc = None;
            for (idx, addr, taken, roll) in steps {
                // One step in eight jumps; the rest follow control flow
                // while it stays inside the program.
                let (idx, base) = match next_pc {
                    Some(pc) if roll != 0 => {
                        let base = pc & RELOCATED;
                        let i = (0..p.code.len()).find(|&i| p.pc_of(i) + base == pc);
                        i.map_or((idx, 0), |i| (i, base))
                    }
                    _ => (idx, if addr & 1 == 0 { 0 } else { RELOCATED }),
                };
                let pc = p.pc_of(idx) + base;
                let w = p.code[idx];
                let rec = match idx {
                    1 | 2 => TraceRecord::memory(pc, w, 0x10_0000 + (addr & !7)),
                    4 => TraceRecord::branch(pc, w, taken, p.pc_of(0) + base),
                    _ => TraceRecord::plain(pc, w),
                };
                next_pc = Some(rec.next_pc());
                t.push(rec).unwrap();
            }
            t
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Any well-formed trace simulates without panicking on both cores,
    /// and basic accounting invariants hold.
    #[test]
    fn simulators_accept_arbitrary_wellformed_traces(trace in arb_trace()) {
        for platform in [Platform::a53_like(), Platform::a72_like()] {
            let stats = Simulator::new(platform).run(&trace).unwrap();
            prop_assert_eq!(stats.core.instructions, trace.len() as u64);
            prop_assert!(stats.core.cycles >= 1);
            // No core retires more than its theoretical width each cycle —
            // CPI can never drop below 1/4 with these configs.
            prop_assert!(stats.cpi() >= 0.25, "cpi {}", stats.cpi());
            // Branch counters are consistent.
            prop_assert!(stats.core.branch.mispredicts <= stats.core.branch.branches);
        }
    }

    /// Compacting a trace loses nothing: it expands back to the same
    /// records, and replays to the same statistics on both core kinds,
    /// with and without prefilled caches.
    #[test]
    fn compact_traces_roundtrip_and_replay_identically(trace in arb_trace()) {
        let compact = CompactTrace::from_records(trace.records()).unwrap();
        prop_assert_eq!(compact.records().collect::<Vec<_>>(), trace.records());
        prop_assert_eq!(compact.len(), trace.len());
        let warm = SimOptions { prefill_code: true, prefill_data: false, prefill_data_l2: true };
        for platform in [Platform::a53_like(), Platform::a72_like()] {
            for options in [SimOptions::default(), warm] {
                let sim = Simulator::with_decoder(platform.clone(), Decoder::new(), options);
                prop_assert_eq!(sim.run(&trace).unwrap(), sim.run_compact(&compact).unwrap());
            }
        }
    }

    /// A record carrying both an effective address and a branch target
    /// has no compact form: pushing it is an error, never a panic, and
    /// the trace keeps every record pushed before it.
    #[test]
    fn compact_traces_reject_records_with_ea_and_target(
        trace in arb_trace(),
        at in 0usize..400,
        ea in any::<u64>(),
        target in any::<u64>(),
    ) {
        let at = at % trace.len();
        let mut compact = CompactTrace::from_records(&trace.records()[..at]).unwrap();
        let r = trace.records()[at];
        let bad = TraceRecord::branch(r.pc(), r.word(), true, target).with_ea(ea);
        prop_assert!(compact.push(bad).is_err());
        prop_assert_eq!(compact.len(), at);
        let mut with_bad = trace.clone();
        with_bad.push(bad).unwrap();
        prop_assert!(Simulator::new(Platform::a53_like()).run(&with_bad).is_err());
    }

    /// The memory hierarchy's counters stay consistent for any access mix.
    #[test]
    fn hierarchy_counters_are_consistent(
        ops in proptest::collection::vec((any::<bool>(), 0u64..1 << 22), 1..500)
    ) {
        use racesim::mem::{HierarchyConfig, MemOp, MemoryHierarchy};
        let mut m = MemoryHierarchy::new(&HierarchyConfig::default());
        let mut cycle = 0;
        for (is_store, addr) in &ops {
            let op = if *is_store { MemOp::Store } else { MemOp::Load };
            let r = m.access(op, *addr, 0x1000, cycle);
            prop_assert!(r.latency >= 1);
            cycle += 10;
        }
        let s = m.stats();
        prop_assert_eq!(s.l1d.accesses, ops.len() as u64);
        prop_assert_eq!(s.l1d.hits + s.l1d.misses, s.l1d.accesses);
        prop_assert!(s.l2.accesses >= s.l1d.misses.saturating_sub(s.l2.prefetch_fills));
    }

    /// Tuner configurations produced by the sampling model always apply
    /// cleanly to a platform (no panics, all fields in range).
    #[test]
    fn sampled_configurations_always_apply(seed in any::<u64>()) {
        use racesim::core::params::{apply, build_space};
        use racesim::race::SamplingModel;
        use rand::{rngs::StdRng, SeedableRng};

        let space = build_space(CoreKind::OutOfOrder, racesim::core::Revision::Fixed);
        let model = SamplingModel::new(&space);
        let mut rng = StdRng::seed_from_u64(seed);
        let cfg = model.sample(&space, &mut rng);
        let p = apply(&space, &cfg, &Platform::a72_like());
        // The resulting platform must be constructible.
        let _ = Simulator::new(p);
    }
}
