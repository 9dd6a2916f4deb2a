//! The golden-journal gate: `tests/fixtures/golden_campaign.jsonl` is a
//! committed recording of a two-segment (checkpoint → resume),
//! fault-injected tuning campaign. Replaying it from scratch must
//! reproduce the recorded outcome **bit for bit** — survivor counts,
//! elimination order, per-iteration and final best costs as f64 bit
//! patterns. Any model, tuner, RNG, or fault-plan change that shifts
//! campaign behaviour trips this test; if the change is intentional,
//! re-record the fixture (the command line is in DESIGN.md §8).

use racesim::core::CampaignSpec;
use racesim::race::replay::{compare, RecordedCampaign, Verdict};
use racesim::telemetry::{parse_journal, read_journal, Event, Telemetry};
use std::path::PathBuf;

fn fixture() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/golden_campaign.jsonl")
}

/// Replays the committed campaign and returns (recorded, replayed).
fn replay_golden() -> (RecordedCampaign, RecordedCampaign) {
    let (entries, warnings) = read_journal(&fixture()).expect("fixture readable");
    assert!(warnings.is_empty(), "golden journal is clean: {warnings:?}");
    let recorded = RecordedCampaign::digest(&entries);
    assert_eq!(recorded.segments, 2, "fixture spans a checkpoint resume");

    let spec = CampaignSpec::from_journal(&recorded).expect("spec reconstructible");
    assert_eq!(spec.fault_profile, "transient", "fixture is fault-injected");
    let t = Telemetry::in_memory();
    spec.run(&t).expect("replay runs");
    t.flush();
    let text = t.lines().join("\n");
    let (fresh, warnings) = parse_journal(&text);
    assert!(warnings.is_empty(), "replay journal parses: {warnings:?}");
    let replayed = RecordedCampaign::digest(&fresh);
    (recorded, replayed)
}

#[test]
fn golden_campaign_replays_bit_for_bit() {
    let (recorded, replayed) = replay_golden();
    let report = compare(&recorded, &replayed);
    assert_eq!(
        report.verdict,
        Verdict::Match,
        "replay diverged from the golden journal:\n{}",
        report.render_text()
    );
    assert!(report.iterations_checked >= 2, "campaign has iterations");
    assert!(
        report.eliminations_checked >= 1,
        "fixture pins elimination order"
    );
    assert_eq!(report.best_cost_recorded, report.best_cost_replayed);

    // The machine-readable report keeps its stable schema.
    let json = report.render_json();
    for key in [
        "\"schema_version\":1",
        "\"verdict\":\"match\"",
        "\"segments\":2",
        "\"iterations_recorded\"",
        "\"iterations_replayed\"",
        "\"iterations_checked\"",
        "\"eliminations_checked\"",
        "\"best_cost_recorded_bits\"",
        "\"best_cost_replayed_bits\"",
        "\"divergence\":null",
        "\"notes\"",
    ] {
        assert!(json.contains(key), "missing {key} in {json}");
    }
}

#[test]
fn golden_campaign_detects_a_one_ulp_perturbation() {
    let (entries, _) = read_journal(&fixture()).expect("fixture readable");
    let recorded = RecordedCampaign::digest(&entries);

    // Nudge one recorded iteration cost by one ulp — the smallest
    // possible change — and verify the comparator pinpoints it.
    let mut nudged = entries.clone();
    let target = nudged
        .iter_mut()
        .find_map(|e| match &mut e.event {
            Event::IterationEnd { best_cost, .. } => Some(best_cost),
            _ => None,
        })
        .expect("fixture has an iteration_end");
    *target = f64::from_bits(target.to_bits() ^ 1);

    let perturbed = RecordedCampaign::digest(&nudged);
    let report = compare(&recorded, &perturbed);
    assert_eq!(report.verdict, Verdict::Diverged);
    let d = report.divergence.expect("pinpointed");
    assert_eq!(d.field, "best_cost_bits");
    assert!(d.location.contains("iteration"), "{}", d.location);
}

#[test]
fn golden_journal_survives_a_torn_tail() {
    // Chop the final line mid-JSON, as a crashed writer would: the
    // reader must keep every whole line and classify the tear.
    let text = std::fs::read_to_string(fixture()).expect("fixture readable");
    let cut = text.trim_end().len() - 7;
    let (entries, warnings) = parse_journal(&text[..cut]);
    assert_eq!(warnings.len(), 1, "{warnings:?}");
    assert!(warnings[0].torn_tail, "classified as torn: {warnings:?}");
    let (full, _) = parse_journal(&text);
    assert_eq!(entries.len(), full.len() - 1, "only the torn line is lost");
}
