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
    // `bounds` was a command until the static CPI bounds were removed.
    for cmd in ["frobnicate", "bounds"] {
        let out = racesim(&[cmd]);
        assert!(!out.status.success(), "racesim {cmd} succeeded");
        let text = String::from_utf8_lossy(&out.stderr);
        assert!(text.contains("unknown command"), "racesim {cmd}: {text}");
    }
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
fn resume_refuses_a_checkpoint_from_another_scale_but_not_another_thread_count() {
    let tmp = |name: &str| {
        let p = std::env::temp_dir().join(format!("racesim_drift_{}_{name}", std::process::id()));
        p.display().to_string()
    };
    let (ckpt, resumed, fresh, journal) =
        (tmp("s.ckpt"), tmp("r.cfg"), tmp("f.cfg"), tmp("t.jsonl"));
    let tune = |scale: &str, threads: &str, extra: &[&str]| {
        let mut args = vec!["tune", "--core", "a53", "--budget", "200"];
        args.extend(["--scale", scale, "--threads", threads]);
        args.extend(extra);
        let out = racesim(&args);
        let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
        assert!(out.status.success(), "racesim {args:?}: {stderr}");
        stderr
    };
    let _ = std::fs::remove_file(&ckpt);
    tune(
        "65536",
        "1",
        &["--max-iterations", "1", "--checkpoint", &ckpt],
    );

    // Another scale: the cached costs belong to another campaign, so the
    // checkpoint is refused and the run equals a fresh one.
    let stderr = tune("32768", "1", &["--resume", &ckpt, "--out", &resumed]);
    assert!(stderr.contains("checkpoint mismatch"), "{stderr}");
    assert!(stderr.contains("scale=1/65536"), "{stderr}");
    tune("32768", "1", &["--out", &fresh]);
    assert_eq!(
        std::fs::read(&resumed).unwrap(),
        std::fs::read(&fresh).unwrap(),
        "a refused checkpoint leaves a fresh run"
    );

    // Another thread count never changes a cost: the resume goes ahead.
    let _ = std::fs::remove_file(&journal);
    let stderr = tune("65536", "2", &["--resume", &ckpt, "--telemetry", &journal]);
    assert!(!stderr.contains("warning"), "{stderr}");
    let text = std::fs::read_to_string(&journal).unwrap();
    assert!(text.contains("\"resume\""), "the run resumed: {text}");

    for f in [ckpt, resumed, fresh, journal] {
        let _ = std::fs::remove_file(f);
    }
}

#[test]
fn resume_refuses_a_checkpoint_from_another_budget() {
    let tmp = |name: &str| {
        let p = std::env::temp_dir().join(format!("racesim_budget_{}_{name}", std::process::id()));
        p.display().to_string()
    };
    let (ckpt, resumed, fresh) = (tmp("b.ckpt"), tmp("r.cfg"), tmp("f.cfg"));
    let tune = |budget: &str, extra: &[&str]| {
        let mut args = vec!["tune", "--core", "a53", "--scale", "65536"];
        args.extend(["--threads", "1", "--budget", budget]);
        args.extend(extra);
        let out = racesim(&args);
        let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
        assert!(out.status.success(), "racesim {args:?}: {stderr}");
        stderr
    };
    let _ = std::fs::remove_file(&ckpt);
    tune("200", &["--max-iterations", "1", "--checkpoint", &ckpt]);

    // The checkpoint's remaining budget belongs to a budget-200 campaign:
    // resuming it at 800 would silently end like that campaign.
    let stderr = tune("800", &["--resume", &ckpt, "--out", &resumed]);
    assert!(stderr.contains("checkpoint mismatch"), "{stderr}");
    assert!(stderr.contains("budget=200"), "{stderr}");
    tune("800", &["--out", &fresh]);
    assert_eq!(
        std::fs::read(&resumed).unwrap(),
        std::fs::read(&fresh).unwrap(),
        "a refused checkpoint leaves a fresh run"
    );

    for f in [ckpt, resumed, fresh] {
        let _ = std::fs::remove_file(f);
    }
}

#[test]
fn every_json_command_prints_one_parseable_document() {
    let journal = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../tests/fixtures/golden_campaign.jsonl"
    );
    let commands: [&[&str]; 6] = [
        &["report", journal, "--json"],
        &["replay", journal, "--json"],
        &["diff", "--scale", "65536", "--json"],
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
    let out_cfg =
        std::env::temp_dir().join(format!("racesim_refused_flags_{}.cfg", std::process::id()));
    let _ = std::fs::remove_file(&journal);
    let _ = std::fs::remove_file(&out_cfg);
    let journal_arg = journal.display().to_string();
    let out_arg = out_cfg.display().to_string();
    let cases: [(&[&str], &str); 9] = [
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
        // A zero budget races nothing: refused, not run into a NaN cost
        // and an untuned configuration written as if tuned.
        (
            &[
                "tune", "--core", "a53", "--scale", "32768", "--budget", "0", "--out", &out_arg,
            ],
            "invalid --budget 0 (must be at least 1)",
        ),
        (
            &[
                "validate", "--core", "a53", "--budget", "0", "--out", &out_arg,
            ],
            "invalid --budget 0 (must be at least 1)",
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
    assert!(
        !out_cfg.exists(),
        "a refused campaign writes no configuration"
    );
}

#[test]
fn diff_names_both_readings_of_a_file_that_is_neither() {
    let path = std::env::temp_dir().join(format!("racesim_v1_baseline_{}.txt", std::process::id()));
    std::fs::write(
        &path,
        "# racesim cpi baseline v1\nlabel = a53/fixed\nk 1 2 memory ok\n",
    )
    .expect("write");
    let out = racesim(&["diff", "--scale", "65536", "--a", path.to_str().unwrap()]);
    let _ = std::fs::remove_file(&path);
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("is neither a CPI baseline (not JSON")
            && stderr.contains(") nor a platform config ("),
        "{stderr}"
    );
}
