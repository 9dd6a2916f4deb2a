//! End-to-end smoke tests of the `racesim` binary.

use racesim_telemetry::json::{self, Value};
use std::process::Command;

fn racesim(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_racesim"))
        .args(args)
        .output()
        .expect("binary runs")
}

#[test]
fn help_is_printed() {
    let out = racesim(&["help"]);
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("validate"));
    assert!(text.contains("simulate"));
}

#[test]
fn unknown_command_fails_with_usage() {
    let out = racesim(&["frobnicate"]);
    assert!(!out.status.success());
    let text = String::from_utf8_lossy(&out.stderr);
    assert!(text.contains("unknown command"));
}

#[test]
fn simulate_reports_cpi() {
    let out = racesim(&["simulate", "--platform", "a53", "--workload", "ED1"]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("CPI:"), "{text}");
    assert!(text.contains("instructions:"));
}

#[test]
fn measure_reports_counters() {
    let out = racesim(&["measure", "--board", "a72", "--workload", "EI"]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("cycles:"));
}

#[test]
fn config_dump_parses_back() {
    let out = racesim(&["config", "--platform", "a72"]);
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    let p = racesim_sim::config_text::from_text(&text).expect("dump parses");
    assert_eq!(p, racesim_sim::Platform::a72_like());
}

#[test]
fn missing_workload_is_a_clean_error() {
    let out = racesim(&["simulate", "--platform", "a53"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("--workload"));
}

#[test]
fn tune_with_telemetry_then_report() {
    let journal = std::env::temp_dir().join(format!(
        "racesim_cli_telemetry_{}.jsonl",
        std::process::id()
    ));
    let journal_s = journal.display().to_string();
    let out = racesim(&[
        "tune",
        "--core",
        "a53",
        "--scale",
        "16384",
        "--budget",
        "80",
        "--max-iterations",
        "1",
        "--faults",
        "transient",
        "--telemetry",
        &journal_s,
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(journal.exists(), "journal file must have been written");

    // Human-readable report renders the campaign shape.
    let out = racesim(&["report", &journal_s]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("campaign"), "{text}");
    assert!(text.contains("best cost"), "{text}");
    assert!(text.contains("iterations"), "{text}");
    assert!(text.contains("sim.run_us"), "{text}");
    assert!(text.contains("cache hit rate"), "{text}");
    assert!(text.contains("journal events"), "{text}");
    assert!(text.contains("campaign_start"), "{text}");

    // Machine-readable report carries the same totals.
    let out = racesim(&["report", &journal_s, "--json"]);
    assert!(out.status.success());
    let json = String::from_utf8_lossy(&out.stdout);
    assert!(
        json.starts_with('{') && json.trim_end().ends_with('}'),
        "{json}"
    );
    assert!(json.contains("\"segments\":1"), "{json}");
    assert!(json.contains("\"counters\":{"), "{json}");

    let _ = std::fs::remove_file(&journal);
}

#[test]
fn profile_renders_a_phase_tree_with_high_coverage() {
    let out = racesim(&["profile", "--workload", "ED1", "--scale", "8192"]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("== ED1"), "{text}");
    assert!(text.contains("coverage"), "{text}");
    assert!(text.contains("simulate"), "{text}");
    assert!(text.contains("fetch"), "{text}");
    assert!(text.contains("execute"), "{text}");
}

#[test]
fn profile_json_and_folded_outputs() {
    let folded = std::env::temp_dir().join(format!("racesim_folded_{}.txt", std::process::id()));
    let folded_s = folded.display().to_string();
    let out = racesim(&[
        "profile",
        "--workload",
        "ED1",
        "--scale",
        "8192",
        "--json",
        "--folded",
        &folded_s,
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let json = String::from_utf8_lossy(&out.stdout);
    assert!(json.starts_with("{\"schema_version\":1,"), "{json}");
    assert!(json.contains("\"kernels\":[{\"name\":\"ED1\""), "{json}");
    assert!(json.contains("\"profile\":{\"phases\":["), "{json}");
    assert!(json.contains("\"self_ns\":"), "{json}");

    let stacks = std::fs::read_to_string(&folded).expect("folded file written");
    assert!(stacks.contains("ED1;simulate"), "{stacks}");
    let _ = std::fs::remove_file(&folded);
}

/// Runs `racesim args...`, asserts success, and parses stdout as exactly
/// one JSON document.
fn json_output(args: &[&str]) -> Value {
    let out = racesim(args);
    assert!(
        out.status.success(),
        "racesim {args:?}: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8(out.stdout).expect("UTF-8 output");
    json::parse(&text)
        .unwrap_or_else(|e| panic!("racesim {args:?} printed invalid JSON ({e}): {text}"))
}

#[test]
fn every_json_command_prints_one_parseable_document() {
    let journal = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../tests/fixtures/golden_campaign.jsonl"
    );
    let commands: [&[&str]; 8] = [
        &["report", journal, "--json"],
        &["replay", journal, "--json"],
        &["diff", "--scale", "65536", "--json"],
        &["bounds", "--core", "a53", "--scale", "65536", "--json"],
        &["bounds", "--core", "a72", "--scale", "65536", "--json"],
        &["lint", "--json"],
        &["lint", "--suite", "--scale", "65536", "--json"],
        &["profile", "--workload", "ED1", "--json"],
    ];
    for args in commands {
        let doc = json_output(args);
        assert!(
            matches!(doc, Value::Obj(ref fields) if !fields.is_empty()),
            "racesim {args:?}: expected a non-empty object, got {doc}"
        );
    }
}

#[test]
fn profile_json_escapes_a_user_platform_name() {
    let cfg = std::env::temp_dir().join(format!("racesim_quoted_{}.cfg", std::process::id()));
    let out = racesim(&["config", "--platform", "a53"]);
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout).replace(
        "name = a53-like",
        "name = a53 \"tuned\" C:\\boards\\firefly",
    );
    assert!(
        text.contains("\"tuned\""),
        "platform name line not found:\n{text}"
    );
    std::fs::write(&cfg, text).expect("write config");
    let cfg_s = cfg.display().to_string();
    let out = racesim(&[
        "profile",
        "--platform",
        &cfg_s,
        "--workload",
        "ED1",
        "--scale",
        "8192",
        "--json",
    ]);
    let _ = std::fs::remove_file(&cfg);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let json = String::from_utf8_lossy(&out.stdout);
    let doc = json::parse(&json).expect("profile --json parses");
    assert_eq!(
        doc.get("platform"),
        Some(&Value::from("a53 \"tuned\" C:\\boards\\firefly"))
    );
    assert!(
        json.contains("\"platform\":\"a53 \\\"tuned\\\" C:\\\\boards\\\\firefly\""),
        "{json}"
    );
}

#[test]
fn report_without_a_journal_is_a_clean_error() {
    let out = racesim(&["report"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("journal path"));

    let out = racesim(&["report", "/nonexistent/racesim.jsonl"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("cannot read"));
}

#[test]
fn flags_a_command_never_reads_are_refused() {
    let journal = std::env::temp_dir().join(format!(
        "racesim_refused_flags_{}.jsonl",
        std::process::id()
    ));
    let _ = std::fs::remove_file(&journal);
    let journal_arg = journal.display().to_string();
    let cases: [(&[&str], &str); 7] = [
        (
            &[
                "validate", "--core", "a53", "--budget", "40", "--budjet", "3",
            ],
            "unknown flag --budjet for validate",
        ),
        (&["list", "--scael", "4"], "unknown flag --scael for list"),
        // Only `tune` reads the seed.
        (
            &["validate", "--seed", "5"],
            "unknown flag --seed for validate",
        ),
        (
            &["tune", "--static-bounds"],
            "unknown flag --static-bounds for tune",
        ),
        (
            &["report", "x.jsonl", "--suite"],
            "unknown flag --suite for report",
        ),
        // Zero is no timeout and no scale divisor: refused, not reread
        // as "no watchdog" or as the unscaled suite.
        (
            &[
                "tune",
                "--core",
                "a53",
                "--timeout",
                "0",
                "--telemetry",
                &journal_arg,
            ],
            "invalid --timeout 0 (must be at least 1)",
        ),
        (
            &["tune", "--core", "a53", "--scale", "0"],
            "invalid --scale 0 (must be at least 1)",
        ),
    ];
    for (args, message) in cases {
        let out = racesim(args);
        assert_eq!(out.status.code(), Some(1), "{args:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(stderr.trim_end(), format!("error: {message}"), "{args:?}");
        assert!(
            out.stdout.is_empty(),
            "{args:?} must fail before doing any work"
        );
    }
    assert!(!journal.exists(), "a refused tune opens no journal");
}
