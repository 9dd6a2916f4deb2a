//! Golden-file tests for the two report renderers. The exact bytes of
//! `racesim lint` output — especially `--json` — are a stable interface
//! that downstream tooling parses; any change must show up as a diff on
//! the files under `tests/golden/`.
//!
//! To regenerate after an intentional format change:
//! `UPDATE_GOLDENS=1 cargo test -p racesim-analyzer --test golden_render`

use racesim_analyzer::{Diagnostic, Lint, Report};
use racesim_telemetry::json::{self, Value};

/// A fixed report touching every severity, context, escaping, and the
/// sort order.
fn sample_report() -> Report {
    let mut r = Report::new();
    r.push(
        Diagnostic::new(
            Lint::DegenerateDimension,
            "dimension has a single candidate",
        )
        .with("space", "a53")
        .with("param", "rob"),
    );
    r.push(
        Diagnostic::new(Lint::KernelUninitRead, "load from a reserved region")
            .with("kernel", "MM")
            .with("region", "0x20000000+0x1000"),
    );
    r.push(
        Diagnostic::new(Lint::PlatformLatencyOrdering, "l1d (20) not below l2 (15)")
            .with("field", "mem.l1d.latency"),
    );
    r.push(
        Diagnostic::new(
            Lint::UntunedField,
            "field \"mem.dram.latency\"\nis never tuned",
        )
        .with("field", "mem.dram.latency"),
    );
    r.sort();
    r
}

fn check_golden(name: &str, actual: &str) {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name);
    if std::env::var_os("UPDATE_GOLDENS").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, actual).unwrap();
        return;
    }
    let expected = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing golden {}: {e}", path.display()));
    assert_eq!(
        actual,
        expected,
        "rendered output drifted from {} (UPDATE_GOLDENS=1 to accept)",
        path.display()
    );
}

#[test]
fn text_rendering_matches_golden() {
    check_golden("report.txt", &sample_report().render_text());
}

#[test]
fn json_rendering_matches_golden() {
    check_golden("report.json", &sample_report().render_json());
}

/// A report exercising the `--suite` additions: RA4xx codes and an
/// appended `coverage` section rendered through `render_json_with`.
fn sample_suite_report() -> (Report, Value) {
    let mut r = Report::new();
    r.push(
        Diagnostic::new(
            Lint::KernelDeadWrite,
            "register write is overwritten before any read on every path",
        )
        .with("kernel", "deepsjeng")
        .with("pc", "0x10a4")
        .with("opcode", "Add")
        .with("regs", "x3"),
    );
    r.push(
        Diagnostic::new(Lint::KernelNoExitLoop, "loop has no exit edge")
            .with("kernel", "bad")
            .with("header_pc", "0x1010"),
    );
    r.push(
        Diagnostic::new(
            Lint::SuiteDeadParameter,
            "no kernel in the suite can observe this parameter",
        )
        .with("space", "a53")
        .with("param", "lat.fp_sqrt")
        .with("requires", "fp square root site(s)"),
    );
    r.push(
        Diagnostic::new(
            Lint::SuiteRedundantKernel,
            "2 kernels share an identical coverage row: none observes a parameter the others do not",
        )
        .with("space", "a53")
        .with("kernels", "chain, looped"),
    );
    r.sort();
    let coverage = concat!(
        "{\"a53\":{\"kernels\":[\"chain\",\"looped\"],\"params\":[",
        "{\"name\":\"lat.fp_sqrt\",\"requirement\":\"fp square root site(s)\",\"observers\":[]},",
        "{\"name\":\"width\",\"requirement\":\"any kernel\",\"observers\":[\"chain\",\"looped\"]}",
        "]}}"
    );
    (r, json::parse(coverage).expect("coverage section parses"))
}

#[test]
fn suite_json_rendering_matches_golden() {
    let (r, coverage) = sample_suite_report();
    check_golden(
        "report_suite.json",
        &r.render_json_with(&[("coverage", coverage)]),
    );
}

#[test]
fn render_json_with_no_sections_equals_render_json() {
    let r = sample_report();
    assert_eq!(r.render_json(), r.render_json_with(&[]));
}

#[test]
fn json_is_stable_across_renders() {
    let r = sample_report();
    assert_eq!(r.render_json(), r.render_json());
    assert_eq!(r.render_text(), r.render_text());
}
