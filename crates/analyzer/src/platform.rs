//! Platform invariant checking (`RA1xx`).
//!
//! [`check`] validates a fully-built [`Platform`] against invariants that
//! hold on any realisable hardware: consistent cache geometry, strictly
//! increasing memory latencies, pipeline structures no smaller than the
//! widths that feed them, non-zero resources and latencies, power-of-two
//! predictor tables. It is the shared gate behind the CLI's `lint`
//! subcommand and `racesim-core`'s validator, which refuses to spend
//! simulation budget on an unrealisable base or best-guess platform.
//! Sampled configurations are not gated: a flagged sample still
//! simulates, so the race simply costs it like any other.

use crate::diag::{Diagnostic, Lint, Severity};
use racesim_sim::Platform;
use racesim_uarch::branch::{DirPredictorConfig, IndirectPredictorConfig};
use racesim_uarch::CoreKind;

/// Checks every platform invariant, returning one diagnostic per
/// violation. An empty vector means the platform is realisable.
pub fn check(platform: &Platform) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    check_into(platform, &mut out);
    out
}

/// Like [`check`], but appends into an existing buffer. Every appended
/// diagnostic carries a `platform` context entry.
pub fn check_into(platform: &Platform, out: &mut Vec<Diagnostic>) {
    let start = out.len();
    check_caches(platform, out);
    check_latencies(platform, out);
    check_core(platform, out);
    check_branch(platform, out);
    for d in out[start..].iter_mut() {
        d.context
            .insert(0, ("platform".to_string(), platform.name.clone()));
    }
}

/// True when the platform carries no error-severity violation: the
/// yes/no form of [`check`].
pub fn is_realisable(platform: &Platform) -> bool {
    !check(platform)
        .iter()
        .any(|d| d.severity == Severity::Error)
}

fn check_caches(platform: &Platform, out: &mut Vec<Diagnostic>) {
    for (level, c) in [
        ("mem.l1i", &platform.mem.l1i),
        ("mem.l1d", &platform.mem.l1d),
        ("mem.l2", &platform.mem.l2),
    ] {
        if c.size_kb == 0 || c.assoc == 0 || c.line_bytes == 0 {
            out.push(
                Diagnostic::new(
                    Lint::PlatformZeroResource,
                    format!("{level} has a zero-sized dimension"),
                )
                .with("field", level)
                .with(
                    "geometry",
                    format!("{}KiB/{}way/{}B", c.size_kb, c.assoc, c.line_bytes),
                ),
            );
            continue; // the geometry checks below would divide by zero
        }
        if !c.line_bytes.is_power_of_two() {
            out.push(
                Diagnostic::new(
                    Lint::PlatformCacheGeometry,
                    format!("{level} line size {} B is not a power of two", c.line_bytes),
                )
                .with("field", format!("{level}.line_bytes")),
            );
        }
        let bytes = c.size_kb as u64 * 1024;
        let way_bytes = c.assoc as u64 * c.line_bytes as u64;
        if !bytes.is_multiple_of(way_bytes) {
            out.push(
                Diagnostic::new(
                    Lint::PlatformCacheGeometry,
                    format!(
                        "{level}: {} KiB does not divide into {} ways of {} B lines",
                        c.size_kb, c.assoc, c.line_bytes
                    ),
                )
                .with("field", level),
            );
        } else {
            let sets = bytes / way_bytes;
            if !sets.is_power_of_two() {
                out.push(
                    Diagnostic::new(
                        Lint::PlatformCacheGeometry,
                        format!(
                            "{level}: {} KiB / {} ways / {} B lines implies {sets} sets, \
                             which is not a power of two (the set indexer cannot address it)",
                            c.size_kb, c.assoc, c.line_bytes
                        ),
                    )
                    .with("field", level)
                    .with("sets", sets),
                );
            }
        }
        if c.ports == 0 {
            out.push(
                Diagnostic::new(Lint::PlatformZeroResource, format!("{level} has no ports"))
                    .with("field", format!("{level}.ports")),
            );
        }
        if c.mshrs == 0 {
            out.push(
                Diagnostic::new(
                    Lint::PlatformZeroResource,
                    format!("{level} has no MSHRs: it could never start a miss"),
                )
                .with("field", format!("{level}.mshrs")),
            );
        }
        if c.latency == 0 {
            out.push(
                Diagnostic::new(
                    Lint::PlatformZeroLatency,
                    format!("{level} hit latency is zero"),
                )
                .with("field", format!("{level}.latency")),
            );
        }
    }
    match platform.mem.prefetcher {
        racesim_mem::PrefetcherConfig::Stride { table_entries, .. }
            if table_entries == 0 || !table_entries.is_power_of_two() =>
        {
            out.push(
                Diagnostic::new(
                    Lint::PlatformPredictorGeometry,
                    format!(
                        "stride prefetcher table of {table_entries} entries is not a \
                         power of two"
                    ),
                )
                .with("field", "mem.prefetcher.table_entries"),
            );
        }
        racesim_mem::PrefetcherConfig::Ghb {
            buffer_entries,
            index_entries,
            ..
        } => {
            if index_entries == 0 || !index_entries.is_power_of_two() {
                out.push(
                    Diagnostic::new(
                        Lint::PlatformPredictorGeometry,
                        format!("GHB index table of {index_entries} entries is not a power of two"),
                    )
                    .with("field", "mem.prefetcher.index_entries"),
                );
            }
            if buffer_entries == 0 {
                out.push(
                    Diagnostic::new(
                        Lint::PlatformZeroResource,
                        "GHB prefetcher has a zero-depth history buffer",
                    )
                    .with("field", "mem.prefetcher.buffer_entries"),
                );
            }
        }
        _ => {}
    }
    if platform.mem.dram.bytes_per_cycle == 0 {
        out.push(
            Diagnostic::new(Lint::PlatformZeroResource, "DRAM bandwidth is zero")
                .with("field", "mem.dram.bytes_per_cycle"),
        );
    }
    if let Some(tlb) = &platform.mem.tlb {
        if tlb.entries == 0 {
            out.push(
                Diagnostic::new(
                    Lint::PlatformZeroResource,
                    "TLB is modelled but has zero entries",
                )
                .with("field", "mem.tlb.entries"),
            );
        }
        if tlb.page_bytes == 0 || !tlb.page_bytes.is_power_of_two() {
            out.push(
                Diagnostic::new(
                    Lint::PlatformCacheGeometry,
                    format!("TLB page size {} B is not a power of two", tlb.page_bytes),
                )
                .with("field", "mem.tlb.page_bytes"),
            );
        }
    }
}

fn check_latencies(platform: &Platform, out: &mut Vec<Diagnostic>) {
    let m = &platform.mem;
    for (level, lat) in [("mem.l1i", m.l1i.latency), ("mem.l1d", m.l1d.latency)] {
        if lat >= m.l2.latency {
            out.push(
                Diagnostic::new(
                    Lint::PlatformLatencyOrdering,
                    format!(
                        "{level} hit latency ({lat}) is not below the L2 hit latency ({}): \
                         misses would be cheaper than hits",
                        m.l2.latency
                    ),
                )
                .with("field", format!("{level}.latency")),
            );
        }
    }
    if m.l2.latency >= m.dram.latency {
        out.push(
            Diagnostic::new(
                Lint::PlatformLatencyOrdering,
                format!(
                    "L2 hit latency ({}) is not below the DRAM latency ({})",
                    m.l2.latency, m.dram.latency
                ),
            )
            .with("field", "mem.l2.latency"),
        );
    }
    if m.dram.latency == 0 {
        out.push(
            Diagnostic::new(Lint::PlatformZeroLatency, "DRAM latency is zero")
                .with("field", "mem.dram.latency"),
        );
    }
    let lat = &platform.core.lat;
    for (field, v) in [
        ("core.lat.int_alu", lat.int_alu),
        ("core.lat.int_mul", lat.int_mul),
        ("core.lat.int_div", lat.int_div),
        ("core.lat.fp_add", lat.fp_add),
        ("core.lat.fp_mul", lat.fp_mul),
        ("core.lat.fp_div", lat.fp_div),
        ("core.lat.fp_sqrt", lat.fp_sqrt),
        ("core.lat.fp_cvt", lat.fp_cvt),
        ("core.lat.fp_mov", lat.fp_mov),
        ("core.lat.simd_alu", lat.simd_alu),
        ("core.lat.simd_mul", lat.simd_mul),
        ("core.lat.simd_fp_add", lat.simd_fp_add),
        ("core.lat.simd_fp_mul", lat.simd_fp_mul),
        ("core.lat.simd_fma", lat.simd_fma),
    ] {
        if v == 0 {
            out.push(
                Diagnostic::new(
                    Lint::PlatformZeroLatency,
                    format!("execution latency {field} is zero"),
                )
                .with("field", field),
            );
        } else if v > 128 {
            out.push(
                Diagnostic::new(
                    Lint::PlatformImplausibleValue,
                    format!("execution latency {field} of {v} cycles is implausibly long"),
                )
                .with("field", field),
            );
        }
    }
    if !platform.core.frequency_ghz.is_finite() || platform.core.frequency_ghz <= 0.0 {
        out.push(
            Diagnostic::new(
                Lint::PlatformImplausibleValue,
                format!(
                    "core frequency {} GHz is not positive",
                    platform.core.frequency_ghz
                ),
            )
            .severity(Severity::Error)
            .with("field", "core.frequency_ghz"),
        );
    } else if platform.core.frequency_ghz > 10.0 {
        out.push(
            Diagnostic::new(
                Lint::PlatformImplausibleValue,
                format!(
                    "core frequency {} GHz is beyond anything fabricated",
                    platform.core.frequency_ghz
                ),
            )
            .with("field", "core.frequency_ghz"),
        );
    }
}

fn check_core(platform: &Platform, out: &mut Vec<Diagnostic>) {
    let core = &platform.core;
    if core.frontend.fetch_width == 0 {
        out.push(
            Diagnostic::new(
                Lint::PlatformZeroResource,
                "front end fetches zero instructions per cycle",
            )
            .with("field", "core.frontend.fetch_width"),
        );
    }
    if core.frontend.depth == 0 {
        out.push(
            Diagnostic::new(
                Lint::PlatformZeroResource,
                "front end has zero pipeline depth",
            )
            .with("field", "core.frontend.depth"),
        );
    }
    match core.kind {
        CoreKind::InOrder => {
            let p = &core.inorder;
            for (field, v) in [
                ("core.inorder.issue_width", p.issue_width),
                ("core.inorder.int_alu_units", p.int_alu_units),
                ("core.inorder.fp_units", p.fp_units),
                ("core.inorder.store_buffer", p.store_buffer),
                ("core.inorder.mem_per_cycle", p.mem_per_cycle),
            ] {
                if v == 0 {
                    out.push(
                        Diagnostic::new(Lint::PlatformZeroResource, format!("{field} is zero"))
                            .with("field", field),
                    );
                }
            }
            if p.issue_width > core.frontend.fetch_width {
                out.push(
                    Diagnostic::new(
                        Lint::PlatformQueueRelation,
                        format!(
                            "issue width {} exceeds fetch width {}: the extra slots can \
                             never fill",
                            p.issue_width, core.frontend.fetch_width
                        ),
                    )
                    .with("field", "core.inorder.issue_width"),
                );
            }
        }
        CoreKind::OutOfOrder => {
            let p = &core.ooo;
            for (field, v) in [
                ("core.ooo.dispatch_width", p.dispatch_width as u16),
                ("core.ooo.rob_entries", p.rob_entries),
                ("core.ooo.iq_entries", p.iq_entries),
                ("core.ooo.lq_entries", p.lq_entries),
                ("core.ooo.sq_entries", p.sq_entries),
                ("core.ooo.retire_width", p.retire_width as u16),
            ] {
                if v == 0 {
                    out.push(
                        Diagnostic::new(Lint::PlatformZeroResource, format!("{field} is zero"))
                            .with("field", field),
                    );
                }
            }
            for (field, v) in [
                ("core.ooo.ports.int_alu", p.ports.int_alu),
                ("core.ooo.ports.int_mul", p.ports.int_mul),
                ("core.ooo.ports.fp", p.ports.fp),
                ("core.ooo.ports.load", p.ports.load),
                ("core.ooo.ports.store", p.ports.store),
                ("core.ooo.ports.branch", p.ports.branch),
            ] {
                if v == 0 {
                    out.push(
                        Diagnostic::new(
                            Lint::PlatformZeroResource,
                            format!("{field} is zero: that class could never issue"),
                        )
                        .with("field", field),
                    );
                }
            }
            if p.rob_entries < p.dispatch_width as u16 {
                out.push(
                    Diagnostic::new(
                        Lint::PlatformQueueRelation,
                        format!(
                            "reorder buffer of {} entries is below the dispatch width {}",
                            p.rob_entries, p.dispatch_width
                        ),
                    )
                    .with("field", "core.ooo.rob_entries"),
                );
            }
            if p.iq_entries < p.dispatch_width as u16 {
                out.push(
                    Diagnostic::new(
                        Lint::PlatformQueueRelation,
                        format!(
                            "issue queue of {} entries is below the dispatch width {}",
                            p.iq_entries, p.dispatch_width
                        ),
                    )
                    .with("field", "core.ooo.iq_entries"),
                );
            }
            if p.rob_entries < p.iq_entries {
                out.push(
                    Diagnostic::new(
                        Lint::PlatformQueueRelation,
                        format!(
                            "issue queue ({}) is larger than the reorder buffer ({}): \
                             every in-flight instruction occupies a ROB slot",
                            p.iq_entries, p.rob_entries
                        ),
                    )
                    .with("field", "core.ooo.iq_entries"),
                );
            }
            if p.dispatch_width > core.frontend.fetch_width {
                out.push(
                    Diagnostic::new(
                        Lint::PlatformQueueRelation,
                        format!(
                            "dispatch width {} exceeds fetch width {}: the extra slots can \
                             never fill",
                            p.dispatch_width, core.frontend.fetch_width
                        ),
                    )
                    .with("field", "core.ooo.dispatch_width"),
                );
            }
        }
    }
}

fn check_branch(platform: &Platform, out: &mut Vec<Diagnostic>) {
    let b = &platform.core.branch;
    if b.btb_entries == 0 || b.btb_ways == 0 {
        out.push(
            Diagnostic::new(Lint::PlatformZeroResource, "BTB has zero entries or ways")
                .with("field", "core.branch.btb_entries"),
        );
    } else {
        if !b.btb_entries.is_power_of_two() {
            out.push(
                Diagnostic::new(
                    Lint::PlatformPredictorGeometry,
                    format!("BTB entry count {} is not a power of two", b.btb_entries),
                )
                .with("field", "core.branch.btb_entries"),
            );
        }
        if !b.btb_entries.is_multiple_of(b.btb_ways)
            || !(b.btb_entries / b.btb_ways).is_power_of_two()
        {
            out.push(
                Diagnostic::new(
                    Lint::PlatformPredictorGeometry,
                    format!(
                        "BTB of {} entries cannot form {} ways over a power-of-two set count",
                        b.btb_entries, b.btb_ways
                    ),
                )
                .with("field", "core.branch.btb_ways"),
            );
        }
    }
    let table_bits = match b.direction {
        DirPredictorConfig::StaticTaken | DirPredictorConfig::StaticNotTaken => None,
        DirPredictorConfig::Bimodal { table_bits }
        | DirPredictorConfig::Gshare { table_bits, .. }
        | DirPredictorConfig::Tournament { table_bits, .. } => Some(table_bits),
    };
    if let Some(bits) = table_bits {
        if bits == 0 || bits > 28 {
            out.push(
                Diagnostic::new(
                    Lint::PlatformPredictorGeometry,
                    format!("direction predictor table of 2^{bits} counters is not buildable"),
                )
                .with("field", "core.branch.direction.table_bits"),
            );
        }
    }
    if let IndirectPredictorConfig::PathHistory { table_bits, .. } = b.indirect {
        if table_bits == 0 || table_bits > 28 {
            out.push(
                Diagnostic::new(
                    Lint::PlatformPredictorGeometry,
                    format!("indirect target cache of 2^{table_bits} entries is not buildable"),
                )
                .with("field", "core.branch.indirect.table_bits"),
            );
        }
    }
    if b.mispredict_penalty == 0 {
        out.push(
            Diagnostic::new(
                Lint::PlatformZeroLatency,
                "branch mispredicts cost zero cycles",
            )
            .with("field", "core.branch.mispredict_penalty"),
        );
    } else if b.mispredict_penalty < platform.core.frontend.depth as u64 {
        out.push(
            Diagnostic::new(
                Lint::PlatformQueueRelation,
                format!(
                    "mispredict penalty ({}) is below the front-end depth ({}): a flush \
                     cannot recover faster than the pipeline is long",
                    b.mispredict_penalty, platform.core.frontend.depth
                ),
            )
            .severity(Severity::Warn)
            .with("field", "core.branch.mispredict_penalty"),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn codes(p: &Platform) -> Vec<&'static str> {
        check(p).iter().map(|d| d.lint.code()).collect()
    }

    #[test]
    fn shipped_presets_are_clean() {
        for p in [Platform::a53_like(), Platform::a72_like()] {
            let diags = check(&p);
            assert!(diags.is_empty(), "{}: {:?}", p.name, diags);
        }
    }

    #[test]
    fn inverted_latencies_are_flagged() {
        let mut p = Platform::a53_like();
        p.mem.l1d.latency = 20; // above the 15-cycle L2
        assert!(codes(&p).contains(&"RA102"));
        let mut p = Platform::a53_like();
        p.mem.dram.latency = 10; // below the L2
        assert!(codes(&p).contains(&"RA102"));
    }

    #[test]
    fn broken_geometry_is_flagged() {
        let mut p = Platform::a53_like();
        p.mem.l1d.size_kb = 48;
        p.mem.l1d.assoc = 4; // 192 sets: not a power of two
        assert!(codes(&p).contains(&"RA101"));
    }

    #[test]
    fn three_way_l1i_with_power_of_two_sets_is_fine() {
        // The A72's real 48 KiB / 3-way L1I lands on 256 sets; the lint
        // must key on the set count, not on a power-of-two total size.
        let p = Platform::a72_like();
        assert!(!codes(&p).contains(&"RA101"));
    }

    #[test]
    fn window_below_width_is_flagged() {
        let mut p = Platform::a72_like();
        p.core.ooo.rob_entries = 2; // below dispatch width 3
        assert!(codes(&p).contains(&"RA103"));
    }

    #[test]
    fn zero_resources_are_flagged() {
        let mut p = Platform::a53_like();
        p.mem.l1d.mshrs = 0;
        p.core.inorder.issue_width = 0;
        let c = codes(&p);
        assert!(c.iter().filter(|c| **c == "RA104").count() >= 2, "{c:?}");
    }

    #[test]
    fn predictor_geometry_is_flagged() {
        let mut p = Platform::a53_like();
        p.core.branch.btb_entries = 100; // not a power of two
        assert!(codes(&p).contains(&"RA105"));
    }

    #[test]
    fn zero_latency_is_flagged() {
        let mut p = Platform::a72_like();
        p.core.lat.int_div = 0;
        assert!(codes(&p).contains(&"RA106"));
    }

    #[test]
    fn realisability_gate_matches_error_presence() {
        assert!(is_realisable(&Platform::a53_like()));
        let mut p = Platform::a53_like();
        p.mem.l2.latency = 1; // below L1D hit latency
        assert!(!is_realisable(&p));
        // Warn-only findings do not make a platform unrealisable.
        let mut p = Platform::a53_like();
        p.core.frequency_ghz = 25.0;
        assert!(is_realisable(&p));
    }

    #[test]
    fn diagnostics_carry_platform_and_field_context() {
        let mut p = Platform::a53_like();
        p.mem.l1d.latency = 0;
        let diags = check(&p);
        let d = diags
            .iter()
            .find(|d| d.lint == Lint::PlatformZeroLatency)
            .expect("zero latency diagnostic");
        assert!(d
            .context
            .iter()
            .any(|(k, v)| k == "platform" && v == "a53-like"));
        assert!(d
            .context
            .iter()
            .any(|(k, v)| k == "field" && v == "mem.l1d.latency"));
    }
}
