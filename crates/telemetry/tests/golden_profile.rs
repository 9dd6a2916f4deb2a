//! Golden-file tests pinning the profiler's rendered output. The JSON
//! form is the stable schema `racesim profile --json` embeds per kernel
//! (field names, field order, nesting); the folded form is the
//! flamegraph.pl input contract. Any change must show up as a diff on
//! the files under `tests/golden/`.
//!
//! To regenerate after an intentional format change:
//! `UPDATE_GOLDENS=1 cargo test -p racesim-telemetry --test golden_profile`
//!
//! Real phase timings are nondeterministic, so the tree is built from
//! synthetic recorded values via the lock-free [`PhaseTimer`] API — the
//! same recording path the simulator uses.

use racesim_telemetry::Profiler;

/// A deterministic phase tree shaped like a profiled simulation run:
/// `simulate → {prefill, fetch → decode, execute → {mem → l1, core}}`.
fn sample_profiler() -> Profiler {
    let profiler = Profiler::enabled();
    let simulate = profiler.timer("simulate");
    simulate.record_ns(1_000_000);
    simulate.add_insts(9_000);
    simulate.add_cycles(12_000);
    simulate.child("prefill").record_ns(50_000);
    let fetch = simulate.child("fetch");
    fetch.add(9_000, 300_000);
    fetch.child("decode").add(12, 40_000);
    let execute = simulate.child("execute");
    execute.add(9_000, 600_000);
    let mem = execute.child("mem");
    mem.child("l1").add(4_000, 200_000);
    let core = execute.child("core");
    core.child("deps").add_cycles(2_500);
    profiler
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
fn profile_json_matches_golden() {
    check_golden(
        "profile.json",
        &sample_profiler().snapshot().to_json().to_string(),
    );
}

#[test]
fn profile_text_matches_golden() {
    check_golden("profile.txt", &sample_profiler().snapshot().render_text());
}

#[test]
fn profile_folded_matches_golden() {
    check_golden(
        "profile.folded",
        &sample_profiler().snapshot().render_folded(),
    );
}
