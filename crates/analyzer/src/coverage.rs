//! Campaign-level parameter coverage (`RA41x`): which kernels can
//! *statically* observe each `ParamSpace` dimension.
//!
//! The racing loop only converges on a parameter if some kernel's timing
//! actually depends on it — a functional-unit latency needs a kernel that
//! issues that unit's instructions, a replacement policy needs a working
//! set larger than the cache, a return-address stack needs calls. The
//! matrix built here crosses every space dimension with every
//! [`KernelProfile`] using conservative static rules (when in doubt, a
//! parameter counts as observable — the pass must err toward silence),
//! then lints the result:
//!
//! * [`Lint::SuiteDeadParameter`] — the model reads the parameter (the
//!   shared RA008 predicate says it is live) but *no* kernel in the suite
//!   can observe it: the tuner would race that dimension over pure noise.
//! * [`Lint::SuiteNarrowParameter`] — only one or two kernels observe it;
//!   the tuned value rests on a single timing signal.
//! * [`Lint::SuiteRedundantKernel`] — groups of kernels whose coverage
//!   rows are identical; none of them observes anything the others do
//!   not, so the matrix cannot tell them apart.
//!
//! The same matrix feeds `RacingTuner` freezing: dimensions no kernel
//! observes are pinned to their default before any simulation is spent.

use crate::diag::{Diagnostic, Lint};
use crate::ir::KernelProfile;
use crate::param::parameter_is_live;
use racesim_race::{Configuration, ParamSpace};
use racesim_sim::Platform;
use racesim_telemetry::json::Value;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;

/// Why a parameter is (or is not) observable by a kernel — the static
/// requirement the rule engine matched against the profile.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Requirement {
    /// Observable by any kernel that executes at all (pipeline-structure
    /// parameters, instruction-side caches, unknown names).
    Any,
    /// Needs at least one site of the named instruction-class group.
    Sites(&'static str),
    /// Needs a data footprint larger than `capacity` bytes (replacement
    /// and victim parameters of a cache with that capacity).
    FootprintOver(u64),
    /// Needs block-level ILP above 1 (width/port parameters).
    Ilp,
}

impl Requirement {
    pub fn describe(&self) -> String {
        match self {
            Requirement::Any => "any executed instruction".to_string(),
            Requirement::Sites(what) => format!("{what} site(s)"),
            Requirement::FootprintOver(cap) => {
                format!("data footprint > {} KiB", cap / 1024)
            }
            Requirement::Ilp => "block ILP > 1".to_string(),
        }
    }
}

/// Coverage of one space dimension.
#[derive(Debug, Clone)]
pub struct ParamCoverage {
    /// Parameter name.
    pub name: String,
    /// The static requirement used to decide observability.
    pub requirement: Requirement,
    /// `observers[k]` — whether kernel `k` can observe the parameter.
    pub observers: Vec<bool>,
}

impl ParamCoverage {
    /// Number of observing kernels.
    pub fn count(&self) -> usize {
        self.observers.iter().filter(|&&o| o).count()
    }
}

/// The parameter-coverage matrix: space dimensions × suite kernels.
#[derive(Debug, Clone)]
pub struct CoverageMatrix {
    /// Kernel names, in suite order (column headers).
    pub kernels: Vec<String>,
    /// One row per space dimension, in space order.
    pub params: Vec<ParamCoverage>,
}

/// The requirement a parameter name maps to, given the base platform's
/// cache capacities. Unknown names are observable by everything: a rule
/// gap must never invent a dead parameter.
fn requirement_for(name: &str, base: &Platform) -> Requirement {
    use Requirement::*;
    if let Some(unit) = name.strip_prefix("lat.") {
        let group = match unit {
            "int_mul" => "integer multiply",
            "int_div" => "integer divide",
            "fp_add" => "fp add/sub",
            "fp_mul" => "fp multiply",
            "fp_div" => "fp divide",
            "fp_sqrt" => "fp square root",
            "fp_cvt" => "fp convert",
            "fp_mov" => "fp move",
            "simd_alu" => "simd alu",
            "simd_mul" => "simd multiply",
            "simd_fp_add" => "simd fp add",
            "simd_fp_mul" => "simd fp multiply",
            "simd_fma" => "simd fma",
            _ => return Any,
        };
        return Sites(group);
    }
    if name.starts_with("branch.ras") {
        return Sites("call/return");
    }
    if name.starts_with("branch.indirect") {
        // Indirect calls (`blr`) predict through the indirect path too.
        return Sites("indirect branch");
    }
    if name.starts_with("branch.btb") {
        return Sites("branch");
    }
    if name.starts_with("branch.") {
        // Direction predictor geometry and penalties.
        return Sites("conditional branch");
    }
    let cache_cap = |cfg: &racesim_mem::CacheConfig| cfg.size_kb as u64 * 1024;
    for (level, cap, hit_path) in [
        ("l1d.", cache_cap(&base.mem.l1d), Sites("memory access")),
        // L1I misses fill through the L2, so every kernel reaches its hit
        // path.
        ("l2.", cache_cap(&base.mem.l2), Any),
    ] {
        if let Some(field) = name.strip_prefix(level) {
            return match field {
                // Policies only matter once the working set spills the
                // capacity; everything else is on the hit path.
                "replacement" | "victim_entries" | "hash" => FootprintOver(cap),
                "write_allocate" => Sites("store"),
                _ => hit_path,
            };
        }
    }
    if name.starts_with("l1i.") {
        // Every fetch goes through the L1I; kernels never spill its
        // capacity, so geometry-sensitive policies stay "any".
        return Any;
    }
    if name.starts_with("pf.") {
        // Stores train the prefetchers as well as loads.
        return Sites("memory access");
    }
    if name.starts_with("dram.") {
        // Compulsory misses reach DRAM even for cache-resident kernels,
        // and instruction fetches miss too, so every kernel sees it.
        return Any;
    }
    if name.contains("width") || name.contains("ports") || name.contains("units") {
        return Ilp;
    }
    // frontend.*, inorder.*, ooo.* structure, unknown families.
    Any
}

fn observes(req: &Requirement, p: &KernelProfile) -> bool {
    let s = &p.summary;
    match req {
        Requirement::Any => s.instructions > 0,
        Requirement::Sites(group) => match *group {
            "integer multiply" => s.has_class(racesim_isa::InstClass::IntMul),
            "integer divide" => s.has_class(racesim_isa::InstClass::IntDiv),
            "fp add/sub" => s.has_class(racesim_isa::InstClass::FpAdd),
            "fp multiply" => s.has_class(racesim_isa::InstClass::FpMul),
            "fp divide" => s.has_class(racesim_isa::InstClass::FpDiv),
            "fp square root" => s.has_class(racesim_isa::InstClass::FpSqrt),
            "fp convert" => s.has_class(racesim_isa::InstClass::FpCvt),
            "fp move" => s.has_class(racesim_isa::InstClass::FpMov),
            "simd alu" => s.has_class(racesim_isa::InstClass::SimdAlu),
            "simd multiply" => s.has_class(racesim_isa::InstClass::SimdMul),
            "simd fp add" => s.has_class(racesim_isa::InstClass::SimdFpAdd),
            "simd fp multiply" => s.has_class(racesim_isa::InstClass::SimdFpMul),
            "simd fma" => s.has_class(racesim_isa::InstClass::SimdFma),
            "conditional branch" => s.cond_branches() > 0,
            "indirect branch" => s.indirect_branches() > 0 || p.indirect_calls > 0,
            "call/return" => s.calls() > 0 && s.returns() > 0,
            "branch" => s.branches() > 0,
            "store" => s.stores() > 0,
            "memory access" => s.memory_ops() > 0,
            _ => true,
        },
        Requirement::FootprintOver(cap) => s.memory_ops() > 0 && p.data_bytes > *cap,
        Requirement::Ilp => p.max_block_ilp > 1.0,
    }
}

impl CoverageMatrix {
    /// Crosses every dimension of `space` with every kernel profile.
    /// `base` supplies the cache capacities footprint rules compare
    /// against (candidate geometries vary around it; the base is the
    /// hardware being matched, so it is the honest reference point).
    pub fn build(
        space: &ParamSpace,
        profiles: &[KernelProfile],
        base: &Platform,
    ) -> CoverageMatrix {
        let params = space
            .params()
            .iter()
            .map(|p| {
                let requirement = requirement_for(&p.name, base);
                let observers = profiles.iter().map(|k| observes(&requirement, k)).collect();
                ParamCoverage {
                    name: p.name.clone(),
                    requirement,
                    observers,
                }
            })
            .collect();
        CoverageMatrix {
            kernels: profiles.iter().map(|p| p.name.clone()).collect(),
            params,
        }
    }

    /// Names of dimensions no kernel in the suite observes.
    pub fn unobservable(&self) -> Vec<&str> {
        self.params
            .iter()
            .filter(|p| p.count() == 0)
            .map(|p| p.name.as_str())
            .collect()
    }

    /// Kernel names observing parameter `name`, if it exists.
    pub fn observers_of(&self, name: &str) -> Option<Vec<&str>> {
        let p = self.params.iter().find(|p| p.name == name)?;
        Some(
            p.observers
                .iter()
                .zip(&self.kernels)
                .filter(|(&o, _)| o)
                .map(|(_, k)| k.as_str())
                .collect(),
        )
    }

    /// Compact text rendering: one row per parameter with the observer
    /// count and up to three example kernels.
    pub fn render_text(&self) -> String {
        let total = self.kernels.len();
        let width = self
            .params
            .iter()
            .map(|p| p.name.len())
            .max()
            .unwrap_or(0)
            .max("parameter".len());
        let mut out = String::new();
        let _ = writeln!(out, "parameter coverage over {total} kernel(s):");
        let _ = writeln!(
            out,
            "  {:width$}  {:>9}  requirement / examples",
            "parameter", "observers"
        );
        for p in &self.params {
            let examples: Vec<&str> = p
                .observers
                .iter()
                .zip(&self.kernels)
                .filter(|(&o, _)| o)
                .map(|(_, k)| k.as_str())
                .take(3)
                .collect();
            let detail = if examples.is_empty() {
                format!("NONE — needs {}", p.requirement.describe())
            } else if examples.len() == p.count() {
                examples.join(", ")
            } else {
                format!("{}, ...", examples.join(", "))
            };
            let _ = writeln!(
                out,
                "  {:width$}  {:>6}/{total:<2}  {detail}",
                p.name,
                p.count()
            );
        }
        out
    }

    /// JSON rendering, suitable for a `Report::render_json_with` section:
    /// `{"kernels": [...], "params": [{"name", "requirement",
    /// "observers": [names...]}]}`.
    pub fn to_json(&self) -> Value {
        let params = self.params.iter().map(|p| {
            let observers = p
                .observers
                .iter()
                .zip(&self.kernels)
                .filter(|(o, _)| **o)
                .map(|(_, k)| k);
            Value::obj([
                ("name", p.name.as_str().into()),
                ("requirement", p.requirement.describe().into()),
                ("observers", Value::arr(observers)),
            ])
        });
        Value::obj([
            ("kernels", Value::arr(&self.kernels)),
            ("params", Value::arr(params)),
        ])
    }
}

/// Lints the matrix. `apply` is the same closure `param::check_model`
/// takes; it feeds the shared RA008 liveness predicate so RA410 only
/// fires for parameters the *model* genuinely reads (a model-dead
/// parameter is RA008's finding, not a suite gap).
pub fn check_suite(
    space: &ParamSpace,
    matrix: &CoverageMatrix,
    apply: &dyn Fn(&Configuration) -> Platform,
) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    let anchor = space.default_configuration();
    let mut touched = BTreeSet::new();

    for (i, p) in matrix.params.iter().enumerate() {
        let n = p.count();
        if n == 0 {
            if parameter_is_live(space, &anchor, i, apply, &mut touched) {
                out.push(
                    Diagnostic::new(
                        Lint::SuiteDeadParameter,
                        format!(
                            "no kernel in the suite can statically observe `{}`: \
                             the tuner would race this dimension over noise",
                            p.name
                        ),
                    )
                    .with("param", &p.name)
                    .with("requires", p.requirement.describe()),
                );
            }
            // Model-dead: RA008 reports it; a suite diagnostic would be
            // double-counting the same root cause.
        } else if n <= 2 {
            let names = matrix.observers_of(&p.name).unwrap_or_default();
            out.push(
                Diagnostic::new(
                    Lint::SuiteNarrowParameter,
                    format!(
                        "only {n} kernel(s) can observe `{}`: its tuned value \
                         rests on very few timing signals",
                        p.name
                    ),
                )
                .with("param", &p.name)
                .with("kernels", names.join(", ")),
            );
        }
    }

    // Kernels with identical coverage rows: the matrix cannot tell them
    // apart, so none observes anything the others do not.
    let mut by_row: BTreeMap<Vec<bool>, Vec<&str>> = BTreeMap::new();
    for (k, name) in matrix.kernels.iter().enumerate() {
        let row: Vec<bool> = matrix.params.iter().map(|p| p.observers[k]).collect();
        by_row.entry(row).or_default().push(name);
    }
    for (_, group) in by_row {
        if group.len() > 1 {
            out.push(
                Diagnostic::new(
                    Lint::SuiteRedundantKernel,
                    format!(
                        "{} kernels share an identical coverage row: none \
                         observes a parameter the others do not",
                        group.len()
                    ),
                )
                .with("kernels", group.join(", ")),
            );
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use racesim_trace::StaticSummary;

    fn profile(name: &str, f: impl FnOnce(&mut KernelProfile)) -> KernelProfile {
        let mut p = KernelProfile {
            name: name.to_string(),
            summary: StaticSummary::default(),
            code_bytes: 64,
            data_bytes: 0,
            indirect_calls: 0,
            blocks: 1,
            reachable_blocks: 1,
            loops: 0,
            static_trips: Vec::new(),
            max_block_ilp: 1.0,
        };
        p.summary.instructions = 16;
        f(&mut p);
        p
    }

    fn idx(c: racesim_isa::InstClass) -> usize {
        c.index()
    }

    #[test]
    fn latency_params_need_matching_sites() {
        let mut space = ParamSpace::new();
        space.add_integer("lat.fp_sqrt", &[14, 18]);
        space.add_integer("lat.int_mul", &[2, 3]);
        let base = Platform::a53_like();
        let profiles = vec![
            profile("mul", |p| {
                p.summary.class_counts[idx(racesim_isa::InstClass::IntMul)] = 4;
            }),
            profile("plain", |_| {}),
        ];
        let m = CoverageMatrix::build(&space, &profiles, &base);
        assert_eq!(m.unobservable(), vec!["lat.fp_sqrt"]);
        assert_eq!(m.observers_of("lat.int_mul"), Some(vec!["mul"]));
    }

    #[test]
    fn replacement_needs_footprint_beyond_capacity() {
        let mut space = ParamSpace::new();
        space.add_categorical("l1d.replacement", &["lru", "plru"]);
        space.add_categorical("l1d.tag_access", &["parallel", "serial"]);
        let base = Platform::a53_like(); // 32 KiB L1D
        let profiles = vec![
            profile("big", |p| {
                p.summary.class_counts[idx(racesim_isa::InstClass::Load)] = 8;
                p.data_bytes = 64 * 1024;
            }),
            profile("small", |p| {
                p.summary.class_counts[idx(racesim_isa::InstClass::Load)] = 8;
                p.data_bytes = 4 * 1024;
            }),
        ];
        let m = CoverageMatrix::build(&space, &profiles, &base);
        assert_eq!(m.observers_of("l1d.replacement"), Some(vec!["big"]));
        assert_eq!(m.observers_of("l1d.tag_access"), Some(vec!["big", "small"]));
    }

    #[test]
    fn unknown_parameter_names_observable_by_all() {
        let mut space = ParamSpace::new();
        space.add_integer("exotic.new_knob", &[1, 2]);
        let base = Platform::a53_like();
        let profiles = vec![profile("anything", |_| {})];
        let m = CoverageMatrix::build(&space, &profiles, &base);
        assert!(m.unobservable().is_empty());
    }

    #[test]
    fn suite_checks_flag_dead_narrow_and_redundant() {
        let mut space = ParamSpace::new();
        space.add_integer("lat.fp_sqrt", &[14, 18]);
        space.add_integer("lat.int_mul", &[2, 3]);
        let base = Platform::a53_like();
        let profiles = vec![
            profile("mul", |p| {
                p.summary.class_counts[idx(racesim_isa::InstClass::IntMul)] = 4;
            }),
            profile("twin-a", |_| {}),
            profile("twin-b", |_| {}),
        ];
        let m = CoverageMatrix::build(&space, &profiles, &base);
        // A synthetic apply that reads both latencies, so both are
        // model-live and the sqrt gap is the suite's fault.
        let apply = |cfg: &Configuration| {
            let mut p = Platform::a53_like();
            p.core.lat.fp_sqrt = cfg.integer(&space, "lat.fp_sqrt") as u64;
            p.core.lat.int_mul = cfg.integer(&space, "lat.int_mul") as u64;
            p
        };
        let diags = check_suite(&space, &m, &apply);
        let codes: Vec<_> = diags.iter().map(|d| d.lint).collect();
        assert!(codes.contains(&Lint::SuiteDeadParameter));
        assert!(codes.contains(&Lint::SuiteNarrowParameter));
        assert!(codes.contains(&Lint::SuiteRedundantKernel));
        let red = diags
            .iter()
            .find(|d| d.lint == Lint::SuiteRedundantKernel)
            .unwrap();
        assert!(red.context.iter().any(|(_, v)| v == "twin-a, twin-b"));
    }

    #[test]
    fn json_rendering_is_well_formed() {
        let mut space = ParamSpace::new();
        space.add_integer("lat.int_mul", &[2, 3]);
        let base = Platform::a53_like();
        let profiles = vec![profile("mul", |p| {
            p.summary.class_counts[idx(racesim_isa::InstClass::IntMul)] = 1;
        })];
        let m = CoverageMatrix::build(&space, &profiles, &base);
        let json = m.to_json().to_string();
        assert!(json.starts_with("{\"kernels\":[\"mul\"]"));
        assert!(json.contains("\"observers\":[\"mul\"]"));
        assert_eq!(
            json.matches('{').count(),
            json.matches('}').count(),
            "{json}"
        );
    }
}
