//! Differential regression harness: per-kernel CPI comparison between two
//! model revisions, two platform configurations, or two builds.
//!
//! Each side of a diff is a list of [`KernelCpi`] records. Cycles and
//! instructions are kept as the simulator's integer counters, so a record
//! written to a baseline file by one build and re-read by another is
//! bit-exact — no float formatting is involved. `racesim diff --save`
//! writes that baseline as a JSON document; a later `racesim diff --a
//! baseline.txt` compares the current build against it, which is how the
//! CI perf/correctness gate detects a model change that silently shifts
//! kernel timing.

use crate::campaign::board_for;
use crate::params::Revision;
use crate::validator::{CostMetric, Validator, ValidatorSettings};
use racesim_kernels::{Scale, Workload};
use racesim_race::TunerSettings;
use racesim_sim::{Platform, SimOptions, Simulator};
use racesim_telemetry::json::{self, Value};
use racesim_uarch::CoreKind;
use std::fmt::Write as _;

/// One kernel's simulated timing, in exact integer counters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KernelCpi {
    /// Kernel name.
    pub name: String,
    /// Kernel category (display string).
    pub category: String,
    /// Simulated cycles.
    pub cycles: u64,
    /// Dynamic instructions timed.
    pub instructions: u64,
}

impl KernelCpi {
    /// Cycles per instruction (0 when nothing ran).
    pub fn cpi(&self) -> f64 {
        if self.instructions == 0 {
            0.0
        } else {
            self.cycles as f64 / self.instructions as f64
        }
    }
}

/// Simulates `workloads` on `platform` and returns their timing records.
///
/// # Errors
///
/// Propagates trace-recording and simulation failures.
pub fn capture_platform(
    platform: &Platform,
    decoder: racesim_decoder::Decoder,
    workloads: &[Workload],
) -> Result<Vec<KernelCpi>, String> {
    let sim = Simulator::with_decoder(platform.clone(), decoder, SimOptions::default());
    workloads
        .iter()
        .map(|w| {
            let trace = w
                .compact_trace()
                .map_err(|e| format!("tracing {} failed: {e}", w.name))?;
            let stats = sim
                .run_compact(&trace)
                .map_err(|e| format!("simulating {} failed: {e}", w.name))?;
            Ok(KernelCpi {
                name: w.name.clone(),
                category: w.category.to_string(),
                cycles: stats.core.cycles,
                instructions: stats.core.instructions,
            })
        })
        .collect()
}

/// Captures the micro-benchmark suite of one model revision on one core:
/// latency-estimated base platform, revision-specific decoder and suite.
/// This is the DESIGN §6b axis — `Revision::Initial` vs `Revision::Fixed`
/// differ in decoder quirks and uninitialised-array handling, and the
/// diff pinpoints exactly which kernels those differences move.
///
/// # Errors
///
/// Propagates probe, trace, and simulation failures.
pub fn capture_revision(
    kind: CoreKind,
    revision: Revision,
    scale: Scale,
) -> Result<Vec<KernelCpi>, String> {
    let board = board_for(kind);
    let settings = ValidatorSettings {
        kind,
        revision,
        scale,
        tuner: TunerSettings::default(),
        metric: CostMetric::CpiError,
    };
    let v = Validator::new(&board, settings);
    let base = v.base_platform().map_err(|e| e.to_string())?;
    let decoder = v.decoder();
    let suite = v.suite();
    capture_platform(&base, decoder, &suite)
}

/// Serialises records to a baseline: one JSON document holding the
/// label and each kernel's exact integer counters.
pub fn render_baseline(label: &str, records: &[KernelCpi]) -> String {
    let kernels = records.iter().map(|r| {
        Value::obj([
            ("name", r.name.as_str().into()),
            ("category", r.category.as_str().into()),
            ("cycles", r.cycles.into()),
            ("instructions", r.instructions.into()),
        ])
    });
    let doc = Value::obj([("label", label.into()), ("kernels", Value::arr(kernels))]);
    format!("{doc}\n")
}

/// Parses a baseline produced by [`render_baseline`], returning its label
/// and records.
///
/// # Errors
///
/// Rejects text that is not JSON and documents with a missing or
/// mistyped field.
pub fn parse_baseline(text: &str) -> Result<(String, Vec<KernelCpi>), String> {
    let doc = json::parse(text).map_err(|e| format!("not JSON: {e}"))?;
    let records = doc
        .field("kernels", Value::as_arr)?
        .iter()
        .map(|k| {
            Ok(KernelCpi {
                name: k.field("name", Value::as_str)?.to_string(),
                category: k.field("category", Value::as_str)?.to_string(),
                cycles: k.field("cycles", Value::as_u64)?,
                instructions: k.field("instructions", Value::as_u64)?,
            })
        })
        .collect::<Result<_, String>>()?;
    Ok((doc.field("label", Value::as_str)?.to_string(), records))
}

/// One kernel's comparison across the two sides.
#[derive(Debug, Clone, PartialEq)]
pub struct DiffRow {
    /// Kernel name.
    pub name: String,
    /// CPI on side A.
    pub cpi_a: f64,
    /// CPI on side B.
    pub cpi_b: f64,
    /// Relative divergence in percent, |a − b| / b · 100 (∞ when only
    /// one side is zero).
    pub rel_pct: f64,
    /// Whether this kernel exceeds the tolerance.
    pub diverged: bool,
}

/// The full differential report.
#[derive(Debug, Clone, PartialEq)]
pub struct CpiDiff {
    /// Label of side A.
    pub label_a: String,
    /// Label of side B.
    pub label_b: String,
    /// Tolerance in percent (0 = bit-exact CPI required).
    pub tolerance_pct: f64,
    /// Per-kernel rows for kernels present on both sides, in side-A order.
    pub rows: Vec<DiffRow>,
    /// Kernels only side A has (counted as divergence).
    pub only_a: Vec<String>,
    /// Kernels only side B has (counted as divergence).
    pub only_b: Vec<String>,
}

/// Compares two captures kernel-by-kernel under `tolerance_pct`.
pub fn diff_records(
    label_a: &str,
    a: &[KernelCpi],
    label_b: &str,
    b: &[KernelCpi],
    tolerance_pct: f64,
) -> CpiDiff {
    let rows = a
        .iter()
        .filter_map(|ra| {
            let rb = b.iter().find(|rb| rb.name == ra.name)?;
            let (ca, cb) = (ra.cpi(), rb.cpi());
            let rel_pct = if cb != 0.0 {
                ((ca - cb) / cb * 100.0).abs()
            } else if ca == 0.0 {
                0.0
            } else {
                f64::INFINITY
            };
            let diverged = if tolerance_pct == 0.0 {
                ca.to_bits() != cb.to_bits()
            } else {
                rel_pct > tolerance_pct
            };
            Some(DiffRow {
                name: ra.name.clone(),
                cpi_a: ca,
                cpi_b: cb,
                rel_pct,
                diverged,
            })
        })
        .collect();
    let only = |xs: &[KernelCpi], ys: &[KernelCpi]| -> Vec<String> {
        xs.iter()
            .filter(|x| !ys.iter().any(|y| y.name == x.name))
            .map(|x| x.name.clone())
            .collect()
    };
    CpiDiff {
        label_a: label_a.to_string(),
        label_b: label_b.to_string(),
        tolerance_pct,
        rows,
        only_a: only(a, b),
        only_b: only(b, a),
    }
}

impl CpiDiff {
    /// Number of kernels beyond tolerance (including one-sided kernels).
    pub fn diverged(&self) -> usize {
        self.rows.iter().filter(|r| r.diverged).count() + self.only_a.len() + self.only_b.len()
    }

    /// Whether anything diverged.
    pub fn has_divergence(&self) -> bool {
        self.diverged() > 0
    }

    /// Human-readable report.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "cpi diff: A = {}, B = {}", self.label_a, self.label_b);
        if self.tolerance_pct == 0.0 {
            let _ = writeln!(out, "tolerance: exact (bit-identical CPI)");
        } else {
            let _ = writeln!(out, "tolerance: {}%", self.tolerance_pct);
        }
        let w = self
            .rows
            .iter()
            .map(|r| r.name.len())
            .chain(std::iter::once("kernel".len()))
            .max()
            .unwrap_or(6);
        let _ = writeln!(
            out,
            "  {:w$}  {:>12}  {:>12}  {:>10}",
            "kernel", "cpi A", "cpi B", "div %"
        );
        for r in &self.rows {
            let _ = writeln!(
                out,
                "{} {:w$}  {:>12.6}  {:>12.6}  {:>10.4}",
                if r.diverged { "!" } else { " " },
                r.name,
                r.cpi_a,
                r.cpi_b,
                r.rel_pct,
            );
        }
        for name in &self.only_a {
            let _ = writeln!(out, "! {name:w$}  only in A");
        }
        for name in &self.only_b {
            let _ = writeln!(out, "! {name:w$}  only in B");
        }
        let n = self.diverged();
        if n == 0 {
            let _ = writeln!(out, "verdict: match ({} kernels)", self.rows.len());
        } else {
            let _ = writeln!(out, "verdict: {n} kernel(s) diverge");
        }
        out
    }

    /// Machine-readable report (stable `schema_version: 1`).
    pub fn render_json(&self) -> String {
        let rows = self.rows.iter().map(|r| {
            Value::obj([
                ("kernel", r.name.as_str().into()),
                ("cpi_a", r.cpi_a.into()),
                ("cpi_b", r.cpi_b.into()),
                ("rel_pct", r.rel_pct.into()),
                ("diverged", r.diverged.into()),
            ])
        });
        Value::obj([
            ("schema_version", Value::from(1u64)),
            ("label_a", self.label_a.as_str().into()),
            ("label_b", self.label_b.as_str().into()),
            ("tolerance_pct", self.tolerance_pct.into()),
            ("kernels", Value::arr(rows)),
            ("only_a", Value::arr(&self.only_a)),
            ("only_b", Value::arr(&self.only_b)),
            ("diverged", self.diverged().into()),
        ])
        .to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(name: &str, cycles: u64, instructions: u64) -> KernelCpi {
        KernelCpi {
            name: name.to_string(),
            category: "memory".to_string(),
            cycles,
            instructions,
        }
    }

    #[test]
    fn baseline_roundtrips_exactly() {
        let mut records = vec![rec("stream_copy", 123_456, 65_432), rec("mip", 7, 3)];
        records.push(KernelCpi {
            name: "a \"quoted\" name".to_string(),
            category: "two words".to_string(),
            cycles: u64::MAX,
            instructions: 0,
        });
        let text = render_baseline("a53/fixed", &records);
        let (label, back) = parse_baseline(&text).expect("parses");
        assert_eq!(label, "a53/fixed");
        assert_eq!(back, records);
    }

    #[test]
    fn zero_tolerance_catches_a_single_cycle() {
        let a = vec![rec("k", 1000, 500)];
        let b = vec![rec("k", 1001, 500)];
        let d = diff_records("a", &a, "b", &b, 0.0);
        assert!(d.has_divergence());
        assert_eq!(d.diverged(), 1);
        // Same counters: no divergence.
        let d = diff_records("a", &a, "a2", &a, 0.0);
        assert!(!d.has_divergence());
    }

    #[test]
    fn tolerance_admits_small_drift_and_flags_large() {
        let a = vec![rec("k", 1000, 500), rec("m", 2000, 500)];
        let b = vec![rec("k", 1005, 500), rec("m", 2500, 500)];
        let d = diff_records("a", &a, "b", &b, 1.0);
        assert_eq!(d.diverged(), 1, "{d:?}");
        assert!(!d.rows[0].diverged, "0.5% is within 1%");
        assert!(d.rows[1].diverged, "25% is not");
    }

    #[test]
    fn one_sided_kernels_count_as_divergence() {
        let a = vec![rec("k", 10, 5), rec("gone", 10, 5)];
        let b = vec![rec("k", 10, 5), rec("new", 10, 5)];
        let d = diff_records("a", &a, "b", &b, 5.0);
        assert_eq!(d.only_a, vec!["gone".to_string()]);
        assert_eq!(d.only_b, vec!["new".to_string()]);
        assert!(d.has_divergence());
        let json = d.render_json();
        for key in [
            "\"schema_version\":1",
            "\"label_a\"",
            "\"kernels\"",
            "\"only_a\"",
            "\"only_b\"",
            "\"diverged\":2",
        ] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
    }

    #[test]
    fn garbage_baselines_are_rejected_naming_the_field() {
        for text in ["not a baseline", "[l1d]\nlatency = 4\n", "{\"label\":\"x\""] {
            assert!(
                parse_baseline(text).unwrap_err().contains("not JSON"),
                "{text}"
            );
        }
        let v1 = "# racesim cpi baseline v1\nlabel = a53/fixed\nk 1 2 memory ok\n";
        assert!(parse_baseline(v1).unwrap_err().contains("not JSON"));
        let err = parse_baseline("[1, 2]").unwrap_err();
        assert!(err.contains("\"kernels\""), "{err}");
        let text = "{\"label\":\"x\",\"kernels\":[{\"name\":\"k\",\"category\":\"memory\",\
                    \"cycles\":-1,\"instructions\":2}]}";
        let err = parse_baseline(text).unwrap_err();
        assert!(err.contains("\"cycles\""), "{err}");
        let err = parse_baseline("{\"kernels\":[]}").unwrap_err();
        assert!(err.contains("\"label\""), "{err}");
    }
}
