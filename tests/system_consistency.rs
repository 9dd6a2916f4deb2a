//! Cross-crate consistency: the hardware board, the simulator and the
//! workloads must agree with each other at the seams.

use racesim::decoder::Decoder;
use racesim::hw::SystemEffects;
use racesim::prelude::*;
use racesim::sim::SimOptions;

/// With system effects disabled and the oracle (hidden) platform plugged
/// into the user-facing simulator, board and simulator are the *same
/// engine* and must agree exactly — the zero-abstraction-error sanity
/// check.
#[test]
fn board_equals_simulator_on_the_oracle_platform() {
    let board = ReferenceBoard::firefly_a53().with_effects(SystemEffects::none());
    for w in microbench_suite(Scale::TINY).iter().take(8) {
        if w.uninit_data {
            continue; // first-touch handling intentionally differs
        }
        let trace = w.trace().unwrap();
        let hw = board.measure_trace(&w.name, &trace, false).unwrap();
        let sim = Simulator::with_decoder(
            board.oracle_platform().clone(),
            Decoder::new(),
            SimOptions::default(),
        );
        let stats = sim.run(&trace).unwrap();
        assert_eq!(
            hw.cycles, stats.core.cycles,
            "{}: board and oracle simulation must agree exactly",
            w.name
        );
        assert_eq!(hw.instructions, stats.core.instructions);
    }
}

/// Traces are deterministic: recording a workload twice yields identical
/// traces, and replaying one trace twice yields identical statistics.
#[test]
fn tracing_and_simulation_are_deterministic() {
    let w = &microbench_suite(Scale::TINY)[5];
    let t1 = w.trace().unwrap();
    let t2 = w.trace().unwrap();
    assert_eq!(t1, t2, "front-end determinism");

    let sim = Simulator::new(Platform::a53_like());
    let s1 = sim.run(&t1).unwrap();
    let s2 = sim.run(&t1).unwrap();
    assert_eq!(s1.core.cycles, s2.core.cycles, "back-end determinism");
}

/// The recorder's output is pinned: a digest of every compact trace a
/// campaign's set-up records (the initialised micro-benchmark suite and
/// the latency probe ladder). Word table order, first pcs, escapes and
/// every record are hashed, so a change to the emulator or to trace
/// interning that moves any of them fails here, not in a tuned result.
#[test]
fn setup_traces_are_pinned_bit_for_bit() {
    fn fnv(h: &mut u64, v: u64) {
        for b in v.to_le_bytes() {
            *h = (*h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
        }
    }
    let mut workloads = racesim::kernels::microbench_suite_initialized(Scale::TINY);
    workloads.extend(racesim::kernels::probes::probe_ladder());
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut records = 0usize;
    for w in &workloads {
        let t = w.compact_trace().unwrap();
        for (word, pc) in t.words().iter().zip(t.first_pcs()) {
            fnv(&mut h, word.0);
            fnv(&mut h, *pc);
        }
        for &(index, pc) in t.escapes() {
            fnv(&mut h, index as u64);
            fnv(&mut h, pc);
        }
        for r in t.iter() {
            fnv(&mut h, r.pc());
            fnv(&mut h, r.word_id() as u64);
            fnv(&mut h, r.ea().map_or(u64::MAX, |ea| ea));
            fnv(
                &mut h,
                r.target().map_or(u64::MAX, |t| t ^ u64::from(r.taken())),
            );
        }
        records += t.len();
    }
    assert_eq!(
        (workloads.len(), records, h),
        (48, 1_349_637, 0x1a82_6a5b_e8d5_d008)
    );
}

/// The A72 board outruns the A53 board on ILP-rich workloads (it is the
/// "big" core), and both report internally consistent counters on every
/// kernel. (At tiny scale, cold-start effects can let the shallow in-order
/// pipe win on miss-dominated kernels, so the speed comparison is made on
/// the compute-bound subset.)
#[test]
fn big_core_is_generally_faster() {
    let a53 = ReferenceBoard::firefly_a53();
    let a72 = ReferenceBoard::firefly_a72();
    let ilp_kernels = ["EI", "EM5", "DP1d", "DP1f"];
    let mut a72_wins = 0;
    for w in microbench_suite(Scale::TINY) {
        let c53 = a53.measure(&w).unwrap();
        let c72 = a72.measure(&w).unwrap();
        assert_eq!(c53.instructions, c72.instructions, "{}", w.name);
        assert!(c53.cycles > 0 && c72.cycles > 0);
        if ilp_kernels.contains(&w.name.as_str()) && c72.cpi() < c53.cpi() {
            a72_wins += 1;
        }
    }
    assert!(
        a72_wins >= 3,
        "the OoO core should win on most ILP kernels: {a72_wins}/4"
    );
}

/// The quirky decoder must *hurt* accuracy against the (bug-free)
/// hardware on dense independent FP streams, which the false
/// destination-as-source dependency serialises — the effect the paper's
/// validation uncovered. (Loop kernels with long bodies hide the false
/// cross-iteration dependency, so the sensitive workload is a tight
/// repeated FP operation.)
#[test]
fn decoder_quirks_inflate_fp_kernel_error() {
    use racesim::isa::{asm::Asm, Reg};
    use racesim::trace::{TraceBuffer, TraceRecord};

    // 800 dynamically independent fadds re-writing the same register: the
    // fixed decoder sees no dependency; the quirky one sees a serial
    // 4-cycle chain.
    let mut a = Asm::new();
    a.fadd(Reg::v(1), Reg::v(2), Reg::v(3));
    let p = a.finish();
    let trace: TraceBuffer = (0..800)
        .map(|_| TraceRecord::plain(p.code_base, p.code[0]))
        .collect();

    let board = ReferenceBoard::firefly_a53();
    let hw = board.measure_trace("fp-stream", &trace, false).unwrap();

    let run = |decoder: Decoder| {
        Simulator::with_decoder(Platform::a53_like(), decoder, SimOptions::default())
            .run(&trace)
            .unwrap()
            .cpi()
    };
    let fixed_err = (run(Decoder::new()) - hw.cpi()).abs();
    let quirky_err = (run(Decoder::with_quirks(
        racesim::decoder::Quirks::capstone_like(),
    )) - hw.cpi())
    .abs();
    assert!(
        quirky_err > fixed_err + 0.5,
        "quirky decoder must be clearly less accurate: {quirky_err:.2} vs {fixed_err:.2}"
    );
}
