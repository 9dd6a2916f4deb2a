//! Whole-suite properties of the kernel IR and the coverage matrix: the
//! CFG/dataflow builder must hold its structural invariants over every
//! shipped workload (all micro-benchmarks plus all SPEC proxies), and
//! the parameter-coverage matrix built over the real tuning spaces must
//! be total and agree with what the suite actually contains.

use racesim_analyzer::coverage::CoverageMatrix;
use racesim_analyzer::ir::{self, KernelIr, KernelProfile};
use racesim_analyzer::Severity;
use racesim_core::params::build_space;
use racesim_core::Revision;
use racesim_kernels::{microbench_suite_initialized, spec_suite, Scale, Workload};
use racesim_sim::Platform;
use racesim_uarch::CoreKind;

fn whole_suite() -> Vec<Workload> {
    let scale = Scale::divide_by(2048);
    let mut all = microbench_suite_initialized(scale);
    all.extend(spec_suite(scale));
    all
}

/// The CFG must partition the instruction stream: blocks are contiguous,
/// non-empty, cover every instruction exactly once, and the block index
/// agrees with the partition.
#[test]
fn blocks_partition_every_kernel() {
    for w in &whole_suite() {
        let ir = KernelIr::build(&w.program);
        let n = w.program.code.len();
        assert!(!ir.blocks.is_empty(), "{}: no blocks", w.name);
        assert_eq!(ir.blocks[0].start, 0, "{}: entry not at 0", w.name);
        assert_eq!(
            ir.blocks.last().unwrap().end,
            n,
            "{}: tail uncovered",
            w.name
        );
        for pair in ir.blocks.windows(2) {
            assert!(pair[0].start < pair[0].end, "{}: empty block", w.name);
            assert_eq!(pair[0].end, pair[1].start, "{}: gap or overlap", w.name);
        }
        assert_eq!(ir.block_of.len(), n, "{}: block_of length", w.name);
        for (idx, &b) in ir.block_of.iter().enumerate() {
            assert!(
                ir.blocks[b].start <= idx && idx < ir.blocks[b].end,
                "{}: block_of[{idx}] = {b} does not contain it",
                w.name
            );
        }
    }
}

/// Successor and predecessor edges must be mutually consistent, and the
/// entry block must be reachable.
#[test]
fn cfg_edges_are_symmetric_and_entry_is_reachable() {
    for w in &whole_suite() {
        let ir = KernelIr::build(&w.program);
        assert!(ir.reachable[0], "{}: entry unreachable", w.name);
        for (b, blk) in ir.blocks.iter().enumerate() {
            for &s in &blk.succs {
                assert!(
                    ir.blocks[s].preds.contains(&b),
                    "{}: edge {b}->{s} has no back-pointer",
                    w.name
                );
            }
            for &p in &blk.preds {
                assert!(
                    ir.blocks[p].succs.contains(&b),
                    "{}: pred {p}->{b} has no forward edge",
                    w.name
                );
            }
        }
    }
}

/// Every natural loop must contain its own header and latch, and a loop
/// without an exit edge must be diagnosed as an error by the linter.
#[test]
fn loops_are_well_formed_or_diagnosed() {
    for w in &whole_suite() {
        let ir = KernelIr::build(&w.program);
        let diags = ir::check(&w.program);
        for l in &ir.loops {
            assert!(
                l.body.contains(&l.header),
                "{}: header outside body",
                w.name
            );
            assert!(l.body.contains(&l.latch), "{}: latch outside body", w.name);
            if !l.has_exit {
                assert!(
                    diags.iter().any(|d| d.severity == Severity::Error),
                    "{}: inescapable loop not diagnosed",
                    w.name
                );
            }
        }
    }
}

/// The shipped suites must be free of Error-severity IR findings: every
/// workload terminates (no RA403) and the analyses run without panicking.
#[test]
fn shipped_suite_has_no_ir_errors() {
    for w in &whole_suite() {
        let errors: Vec<_> = ir::check(&w.program)
            .into_iter()
            .filter(|d| d.severity == Severity::Error)
            .collect();
        assert!(errors.is_empty(), "{}: {errors:?}", w.name);
    }
}

/// Profiles must be internally consistent: a non-empty reachable summary,
/// reachable blocks bounded by the block count, and an ILP of at least 1.
#[test]
fn profiles_are_consistent() {
    for w in &whole_suite() {
        let p: KernelProfile = ir::profile(&w.name, &w.program);
        assert!(p.summary.instructions > 0, "{}: empty summary", w.name);
        assert!(p.reachable_blocks <= p.blocks, "{}", w.name);
        assert!(p.reachable_blocks >= 1, "{}", w.name);
        assert!(p.max_block_ilp >= 1.0, "{}", w.name);
        assert!(p.code_bytes > 0, "{}", w.name);
        assert!(p.static_trips.len() <= p.loops, "{}", w.name);
    }
}

/// The coverage matrix over the real tuning spaces must be total (one row
/// per parameter, one column per kernel) and must agree with ground truth
/// about the suite: conditional branches are everywhere, indirect
/// branches only in the switch kernels and the indirect-call kernel
/// (`CRm`'s `blr` predicts through the indirect path), and no shipped
/// kernel contains an
/// fp square root — `lat.fp_sqrt` is the canonical dead dimension the
/// tuner freezes.
#[test]
fn coverage_matrix_is_total_and_matches_the_suite() {
    let suite = whole_suite();
    let profiles: Vec<_> = suite
        .iter()
        .map(|w| ir::profile(&w.name, &w.program))
        .collect();
    for (kind, base) in [
        (CoreKind::InOrder, Platform::a53_like()),
        (CoreKind::OutOfOrder, Platform::a72_like()),
    ] {
        let space = build_space(kind, Revision::Fixed);
        let matrix = CoverageMatrix::build(&space, &profiles, &base);
        assert_eq!(matrix.kernels.len(), suite.len());
        assert_eq!(matrix.params.len(), space.params().len());
        for (row, p) in matrix.params.iter().zip(space.params()) {
            assert_eq!(row.name, p.name, "rows must follow space order");
            assert_eq!(row.observers.len(), suite.len());
        }
        let count = |name: &str| {
            matrix
                .params
                .iter()
                .find(|r| r.name == name)
                .unwrap_or_else(|| panic!("{name} missing from matrix"))
                .count()
        };
        assert_eq!(count("branch.predictor"), suite.len());
        assert_eq!(count("lat.fp_sqrt"), 0);
        assert!(matrix.unobservable().contains(&"lat.fp_sqrt"));
        let indirect = matrix.observers_of("branch.indirect").unwrap();
        assert_eq!(indirect, vec!["CRm", "CS1", "CS3"]);
    }
}
