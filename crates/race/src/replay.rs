//! Deterministic campaign replay: digest a recorded journal into the
//! deterministic skeleton of the campaign, digest a fresh re-run the
//! same way, and compare the two **bit for bit**.
//!
//! What is compared (all deterministic given seed, space, suite and
//! fault plan; DESIGN.md §7 names the tests that hold this):
//!
//! * campaign setup: seed, budget, instance and parameter counts;
//! * per iteration: candidate count, survivors, best cost (as f64
//!   bits), evaluations spent, blocks raced;
//! * elimination order within each iteration (configuration, kind,
//!   blocks survived, reason);
//! * quarantined instances;
//! * campaign totals: best cost bits, evaluations and failed
//!   configurations.
//!
//! What is deliberately **not** compared: wall-clock fields (`micros`,
//! `t`), the interleaving of `evaluation`/`measurement`/`fault` events
//! (thread-schedule dependent), `checkpoint`/`resume` bookkeeping, and —
//! for journals spanning multiple resumed segments — the `retries`
//! total, because a resumed process re-measures instances whose
//! measurements only lived in its predecessor's memory, repeating their
//! transient-fault retries.
//!
//! A journal may contain several segments (checkpoint → kill → resume
//! appends). The digest merges them: iterations are keyed by number with
//! the **last** occurrence winning (a killed partial iteration is redone
//! by the resumed segment), an `iteration_start` without a matching
//! `iteration_end` is discarded (the tuner discards that work too), and
//! quarantines are deduplicated by instance.

use racesim_telemetry::json;
use racesim_telemetry::{Event, JournalEntry};
use std::collections::BTreeMap;
use std::fmt;

/// One elimination, in journal order within its iteration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EliminationRecord {
    /// Rendered configuration.
    pub config: String,
    /// `statistical` or `failed`.
    pub kind: String,
    /// Instance blocks survived before elimination.
    pub after_blocks: usize,
    /// Detail string.
    pub reason: String,
}

/// The deterministic skeleton of one completed iteration.
#[derive(Debug, Clone, PartialEq)]
pub struct IterationRecord {
    /// Candidate configurations entering the race.
    pub configs: usize,
    /// Configurations alive after elimination.
    pub survivors: usize,
    /// Best campaign cost so far, as raw f64 bits.
    pub best_cost_bits: u64,
    /// Evaluations spent in this iteration.
    pub evals: usize,
    /// Instance blocks raced.
    pub blocks: usize,
    /// Eliminations in journal order.
    pub eliminations: Vec<EliminationRecord>,
}

/// The deterministic campaign totals from `campaign_end`.
#[derive(Debug, Clone, PartialEq)]
pub struct EndRecord {
    /// Best cost found, as raw f64 bits.
    pub best_cost_bits: u64,
    /// Total evaluations (cumulative across resumes).
    pub evals: usize,
    /// Total transient retries (NOT comparable across resumed journals).
    pub retries: usize,
    /// Configurations eliminated by persistent failures.
    pub failed_configs: usize,
    /// Whether the segment ended by cancellation.
    pub aborted: bool,
}

/// A journal digested down to the deterministic skeleton replay
/// verifies against.
#[derive(Debug, Clone, PartialEq)]
pub struct RecordedCampaign {
    /// RNG seed.
    pub seed: u64,
    /// Evaluation budget.
    pub budget: usize,
    /// Benchmark instances in the suite.
    pub n_instances: usize,
    /// Tunable parameters.
    pub n_params: usize,
    /// Process segments merged into this record.
    pub segments: usize,
    /// True when any segment ran under an iteration cap (staged run) —
    /// such a journal may be a prefix of the full campaign.
    pub staged: bool,
    /// Completed iterations, keyed by iteration number.
    pub iterations: BTreeMap<usize, IterationRecord>,
    /// Quarantined instances (instance → reason), deduplicated.
    pub quarantines: BTreeMap<String, String>,
    /// Totals from the last `campaign_end`, if any.
    pub end: Option<EndRecord>,
    /// Digest-time observations (discarded partial iterations, ...).
    pub notes: Vec<String>,
}

impl RecordedCampaign {
    /// Digests journal entries into the comparable skeleton, merging
    /// resumed segments. Fails only when the journal contains no
    /// `campaign_start` at all.
    pub fn digest(entries: &[JournalEntry]) -> Result<RecordedCampaign, String> {
        let mut setup: Option<(u64, usize, usize, usize)> = None;
        let mut segments = 0usize;
        let mut staged = false;
        let mut iterations = BTreeMap::new();
        let mut quarantines = BTreeMap::new();
        let mut end = None;
        let mut notes = Vec::new();
        // The currently open iteration: (number, configs, eliminations).
        let mut open: Option<(usize, usize, Vec<EliminationRecord>)> = None;
        let discard_open = |open: &mut Option<(usize, usize, Vec<EliminationRecord>)>,
                            notes: &mut Vec<String>| {
            if let Some((n, ..)) = open.take() {
                notes.push(format!(
                    "iteration {n} has no iteration_end (killed mid-race?); \
                     discarded, as the tuner discards that work on resume"
                ));
            }
        };
        for e in entries {
            match &e.event {
                Event::CampaignStart {
                    seed,
                    budget,
                    n_instances,
                    n_params,
                } => {
                    discard_open(&mut open, &mut notes);
                    segments += 1;
                    if setup.is_none() {
                        setup = Some((*seed, *budget, *n_instances, *n_params));
                    }
                }
                Event::CampaignConfig { max_iterations, .. } => {
                    staged |= *max_iterations != 0;
                }
                Event::IterationStart { iteration, configs } => {
                    discard_open(&mut open, &mut notes);
                    open = Some((*iteration, *configs, Vec::new()));
                }
                Event::Elimination {
                    config,
                    kind,
                    after_blocks,
                    reason,
                } => {
                    if let Some((_, _, elims)) = &mut open {
                        elims.push(EliminationRecord {
                            config: config.clone(),
                            kind: kind.clone(),
                            after_blocks: *after_blocks,
                            reason: reason.clone(),
                        });
                    }
                }
                Event::Quarantine { instance, reason } => {
                    quarantines.insert(instance.clone(), reason.clone());
                }
                Event::IterationEnd {
                    iteration,
                    survivors,
                    best_cost,
                    evals,
                    blocks,
                    ..
                } => match open.take() {
                    Some((n, configs, eliminations)) if n == *iteration => {
                        iterations.insert(
                            *iteration,
                            IterationRecord {
                                configs,
                                survivors: *survivors,
                                best_cost_bits: best_cost.to_bits(),
                                evals: *evals,
                                blocks: *blocks,
                                eliminations,
                            },
                        );
                    }
                    other => {
                        open = other;
                        discard_open(&mut open, &mut notes);
                        notes.push(format!(
                            "iteration_end {iteration} without a matching start; ignored"
                        ));
                    }
                },
                Event::CampaignEnd {
                    best_cost,
                    evals,
                    retries,
                    failed_configs,
                    aborted,
                    ..
                } => {
                    discard_open(&mut open, &mut notes);
                    end = Some(EndRecord {
                        best_cost_bits: best_cost.to_bits(),
                        evals: *evals,
                        retries: *retries,
                        failed_configs: *failed_configs,
                        aborted: *aborted,
                    });
                }
                _ => {}
            }
        }
        discard_open(&mut open, &mut notes);
        let (seed, budget, n_instances, n_params) =
            setup.ok_or_else(|| "journal contains no campaign_start event".to_string())?;
        Ok(RecordedCampaign {
            seed,
            budget,
            n_instances,
            n_params,
            segments,
            staged,
            iterations,
            quarantines,
            end,
            notes,
        })
    }
}

/// The first recorded/replayed mismatch, pinpointed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Divergence {
    /// Where it happened (`campaign_start`, `iteration 3`,
    /// `iteration 3 / elimination 2`, `quarantine`, `campaign_end`).
    pub location: String,
    /// Which field differs.
    pub field: String,
    /// The recorded value.
    pub recorded: String,
    /// The replayed value.
    pub replayed: String,
}

impl fmt::Display for Divergence {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} / {}: recorded {} vs replayed {}",
            self.location, self.field, self.recorded, self.replayed
        )
    }
}

/// Outcome of comparing a recording against its replay.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Every compared field is bit-identical and the campaigns cover
    /// the same iterations.
    Match,
    /// The recording is an incomplete (staged or aborted) campaign and
    /// every recorded iteration matched the replay's prefix exactly.
    PrefixMatch,
    /// A mismatch was found; see [`ReplayReport::divergence`].
    Diverged,
}

impl Verdict {
    /// Stable machine-readable name.
    pub fn name(self) -> &'static str {
        match self {
            Verdict::Match => "match",
            Verdict::PrefixMatch => "prefix",
            Verdict::Diverged => "diverged",
        }
    }
}

/// The structured result of a replay comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct ReplayReport {
    /// Overall outcome.
    pub verdict: Verdict,
    /// Segments in the recording.
    pub segments: usize,
    /// Iterations in the recording / the replay.
    pub iterations_recorded: usize,
    /// Iterations the replay executed.
    pub iterations_replayed: usize,
    /// Iterations compared field-by-field.
    pub iterations_checked: usize,
    /// Eliminations compared field-by-field.
    pub eliminations_checked: usize,
    /// Recorded final best cost bits (if the recording has an end).
    pub best_cost_recorded: Option<u64>,
    /// Replayed final best cost bits.
    pub best_cost_replayed: Option<u64>,
    /// The first mismatch, when `verdict` is [`Verdict::Diverged`].
    pub divergence: Option<Divergence>,
    /// Human-readable observations (skipped comparisons, digests' notes).
    pub notes: Vec<String>,
}

/// Compares a recorded campaign against its replay, stopping at the
/// first mismatch. `recorded.notes` and `replayed.notes` are folded into
/// the report.
pub fn compare(recorded: &RecordedCampaign, replayed: &RecordedCampaign) -> ReplayReport {
    let mut notes: Vec<String> = Vec::new();
    notes.extend(recorded.notes.iter().map(|n| format!("recorded: {n}")));
    notes.extend(replayed.notes.iter().map(|n| format!("replayed: {n}")));
    let iterations_checked = std::cell::Cell::new(0usize);
    let eliminations_checked = std::cell::Cell::new(0usize);
    let report = |verdict, divergence, notes: Vec<String>| ReplayReport {
        verdict,
        segments: recorded.segments,
        iterations_recorded: recorded.iterations.len(),
        iterations_replayed: replayed.iterations.len(),
        iterations_checked: iterations_checked.get(),
        eliminations_checked: eliminations_checked.get(),
        best_cost_recorded: recorded.end.as_ref().map(|e| e.best_cost_bits),
        best_cost_replayed: replayed.end.as_ref().map(|e| e.best_cost_bits),
        divergence,
        notes,
    };
    let diverged = |location: &str, field: &str, rec: String, rep: String| {
        Some(Divergence {
            location: location.to_string(),
            field: field.to_string(),
            recorded: rec,
            replayed: rep,
        })
    };

    // Campaign setup must agree exactly.
    for (field, rec, rep) in [
        ("seed", recorded.seed, replayed.seed),
        ("budget", recorded.budget as u64, replayed.budget as u64),
        (
            "n_instances",
            recorded.n_instances as u64,
            replayed.n_instances as u64,
        ),
        (
            "n_params",
            recorded.n_params as u64,
            replayed.n_params as u64,
        ),
    ] {
        if rec != rep {
            let d = diverged("campaign_start", field, rec.to_string(), rep.to_string());
            return report(Verdict::Diverged, d, notes);
        }
    }

    // Every recorded iteration must match the replayed one exactly.
    for (n, rec) in &recorded.iterations {
        let loc = format!("iteration {n}");
        let Some(rep) = replayed.iterations.get(n) else {
            let d = diverged(&loc, "present", "yes".into(), "missing".into());
            return report(Verdict::Diverged, d, notes);
        };
        let fields = [
            ("configs", rec.configs as u64, rep.configs as u64),
            ("survivors", rec.survivors as u64, rep.survivors as u64),
            ("evals", rec.evals as u64, rep.evals as u64),
            ("blocks", rec.blocks as u64, rep.blocks as u64),
        ];
        for (field, a, b) in fields {
            if a != b {
                let d = diverged(&loc, field, a.to_string(), b.to_string());
                return report(Verdict::Diverged, d, notes);
            }
        }
        if rec.best_cost_bits != rep.best_cost_bits {
            let d = diverged(
                &loc,
                "best_cost_bits",
                format!("{:016x}", rec.best_cost_bits),
                format!("{:016x}", rep.best_cost_bits),
            );
            return report(Verdict::Diverged, d, notes);
        }
        if rec.eliminations.len() != rep.eliminations.len() {
            let d = diverged(
                &loc,
                "eliminations",
                rec.eliminations.len().to_string(),
                rep.eliminations.len().to_string(),
            );
            return report(Verdict::Diverged, d, notes);
        }
        for (i, (a, b)) in rec.eliminations.iter().zip(&rep.eliminations).enumerate() {
            let loc = format!("{loc} / elimination {i}");
            for (field, x, y) in [
                ("config", &a.config, &b.config),
                ("kind", &a.kind, &b.kind),
                ("reason", &a.reason, &b.reason),
            ] {
                if x != y {
                    let d = diverged(&loc, field, format!("{x:?}"), format!("{y:?}"));
                    return report(Verdict::Diverged, d, notes);
                }
            }
            if a.after_blocks != b.after_blocks {
                let d = diverged(
                    &loc,
                    "after_blocks",
                    a.after_blocks.to_string(),
                    b.after_blocks.to_string(),
                );
                return report(Verdict::Diverged, d, notes);
            }
            eliminations_checked.set(eliminations_checked.get() + 1);
        }
        iterations_checked.set(iterations_checked.get() + 1);
    }

    // Every recorded quarantine must be reproduced.
    for (instance, reason) in &recorded.quarantines {
        match replayed.quarantines.get(instance) {
            None => {
                let d = diverged("quarantine", instance, reason.clone(), "missing".into());
                return report(Verdict::Diverged, d, notes);
            }
            Some(r) if r != reason => {
                let d = diverged("quarantine", instance, reason.clone(), r.clone());
                return report(Verdict::Diverged, d, notes);
            }
            Some(_) => {}
        }
    }

    // Is the recording a complete campaign, or a prefix of one?
    let complete = recorded.end.as_ref().is_some_and(|e| !e.aborted)
        && recorded.iterations.len() >= replayed.iterations.len();
    if !complete {
        if recorded.staged {
            notes.push(
                "recording is a staged run (--max-iterations); verified as a prefix".to_string(),
            );
        } else if recorded.end.as_ref().is_none_or(|e| e.aborted) {
            notes.push("recording ended early (aborted or torn); verified as a prefix".to_string());
        } else {
            // A "complete" recording with fewer iterations than the
            // replay means the campaigns genuinely disagree.
            let d = diverged(
                "campaign_end",
                "iterations",
                recorded.iterations.len().to_string(),
                replayed.iterations.len().to_string(),
            );
            return report(Verdict::Diverged, d, notes);
        }
        return report(Verdict::PrefixMatch, None, notes);
    }

    // Full campaign: totals must agree (bit-for-bit on the cost).
    if let (Some(rec), Some(rep)) = (&recorded.end, &replayed.end) {
        if rec.best_cost_bits != rep.best_cost_bits {
            let d = diverged(
                "campaign_end",
                "best_cost_bits",
                format!("{:016x}", rec.best_cost_bits),
                format!("{:016x}", rep.best_cost_bits),
            );
            return report(Verdict::Diverged, d, notes);
        }
        for (field, a, b) in [
            ("evals", rec.evals, rep.evals),
            ("failed_configs", rec.failed_configs, rep.failed_configs),
        ] {
            if a != b {
                let d = diverged("campaign_end", field, a.to_string(), b.to_string());
                return report(Verdict::Diverged, d, notes);
            }
        }
        if recorded.segments == 1 {
            if rec.retries != rep.retries {
                let d = diverged(
                    "campaign_end",
                    "retries",
                    rec.retries.to_string(),
                    rep.retries.to_string(),
                );
                return report(Verdict::Diverged, d, notes);
            }
        } else {
            notes.push(format!(
                "retries not compared: the recording spans {} segments and resumed \
                 processes repeat re-measurement retries",
                recorded.segments
            ));
        }
    }
    report(Verdict::Match, None, notes)
}

impl ReplayReport {
    /// Human-readable rendering.
    pub fn render_text(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let bits = |b: Option<u64>| match b {
            Some(b) => format!("{:016x} ({})", b, f64::from_bits(b)),
            None => "-".to_string(),
        };
        let _ = writeln!(out, "verdict:             {}", self.verdict.name());
        let _ = writeln!(out, "segments:            {}", self.segments);
        let _ = writeln!(
            out,
            "iterations:          {} recorded, {} replayed, {} checked",
            self.iterations_recorded, self.iterations_replayed, self.iterations_checked
        );
        let _ = writeln!(out, "eliminations:        {}", self.eliminations_checked);
        let _ = writeln!(
            out,
            "best cost (bits):    recorded {}",
            bits(self.best_cost_recorded)
        );
        let _ = writeln!(
            out,
            "                     replayed {}",
            bits(self.best_cost_replayed)
        );
        if let Some(d) = &self.divergence {
            let _ = writeln!(out, "FIRST DIVERGENCE at {d}");
        }
        for n in &self.notes {
            let _ = writeln!(out, "note: {n}");
        }
        out
    }

    /// Machine-readable rendering (stable schema, `schema_version` 1).
    pub fn render_json(&self) -> String {
        let bits = |b: Option<u64>| json::Value::from(b.map(|b| format!("{b:016x}")));
        let divergence = self.divergence.as_ref().map(|d| {
            json::Value::obj([
                ("location", d.location.as_str().into()),
                ("field", d.field.as_str().into()),
                ("recorded", d.recorded.as_str().into()),
                ("replayed", d.replayed.as_str().into()),
            ])
        });
        json::Value::obj([
            ("schema_version", json::Value::from(1u64)),
            ("verdict", self.verdict.name().into()),
            ("segments", self.segments.into()),
            ("iterations_recorded", self.iterations_recorded.into()),
            ("iterations_replayed", self.iterations_replayed.into()),
            ("iterations_checked", self.iterations_checked.into()),
            ("eliminations_checked", self.eliminations_checked.into()),
            ("best_cost_recorded_bits", bits(self.best_cost_recorded)),
            ("best_cost_replayed_bits", bits(self.best_cost_replayed)),
            ("divergence", divergence.into()),
            ("notes", json::Value::arr(&self.notes)),
        ])
        .to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(event: Event) -> JournalEntry {
        JournalEntry { t_us: 0, event }
    }

    fn start() -> JournalEntry {
        entry(Event::CampaignStart {
            seed: 7,
            budget: 100,
            n_instances: 4,
            n_params: 3,
        })
    }

    fn iter_pair(n: usize, survivors: usize, best: f64) -> Vec<JournalEntry> {
        vec![
            entry(Event::IterationStart {
                iteration: n,
                configs: 8,
            }),
            entry(Event::Elimination {
                config: format!("cfg{n}"),
                kind: "statistical".to_string(),
                after_blocks: 2,
                reason: "friedman".to_string(),
            }),
            entry(Event::IterationEnd {
                iteration: n,
                survivors,
                best_cost: best,
                evals: 10,
                blocks: 3,
                micros: 1,
            }),
        ]
    }

    fn end(best: f64) -> JournalEntry {
        entry(Event::CampaignEnd {
            best_cost: best,
            evals: 20,
            retries: 1,
            failed_configs: 0,
            aborted: false,
            micros: 5,
        })
    }

    fn journal(parts: Vec<Vec<JournalEntry>>) -> Vec<JournalEntry> {
        parts.into_iter().flatten().collect()
    }

    #[test]
    fn identical_journals_match() {
        let j = journal(vec![
            vec![start()],
            iter_pair(0, 4, 0.5),
            iter_pair(1, 2, 0.25),
            vec![end(0.25)],
        ]);
        let a = RecordedCampaign::digest(&j).unwrap();
        let b = RecordedCampaign::digest(&j).unwrap();
        let r = compare(&a, &b);
        assert_eq!(r.verdict, Verdict::Match, "{:?}", r.divergence);
        assert_eq!(r.iterations_checked, 2);
        assert_eq!(r.eliminations_checked, 2);
        // Single segment: retries were compared too.
        assert!(r.notes.is_empty(), "{:?}", r.notes);
    }

    #[test]
    fn timestamps_and_noise_events_do_not_affect_the_verdict() {
        let mut a = journal(vec![vec![start()], iter_pair(0, 4, 0.5), vec![end(0.5)]]);
        let mut b = a.clone();
        for (i, e) in b.iter_mut().enumerate() {
            e.t_us = 1000 + i as u64;
        }
        a.insert(
            1,
            entry(Event::Evaluation {
                workload: "MD".to_string(),
                micros: 3,
                cost: 1.0,
            }),
        );
        let ra = RecordedCampaign::digest(&a).unwrap();
        let rb = RecordedCampaign::digest(&b).unwrap();
        assert_eq!(compare(&ra, &rb).verdict, Verdict::Match);
    }

    #[test]
    fn resumed_segments_merge_with_last_iteration_winning() {
        // Segment 1: iteration 0 complete, iteration 1 torn (no end).
        // Segment 2: resumes, redoes iteration 1, finishes.
        let rec = journal(vec![
            vec![start()],
            iter_pair(0, 4, 0.5),
            vec![entry(Event::IterationStart {
                iteration: 1,
                configs: 8,
            })],
            vec![start()],
            iter_pair(1, 2, 0.25),
            vec![end(0.25)],
        ]);
        let uninterrupted = journal(vec![
            vec![start()],
            iter_pair(0, 4, 0.5),
            iter_pair(1, 2, 0.25),
            vec![end(0.25)],
        ]);
        let a = RecordedCampaign::digest(&rec).unwrap();
        assert_eq!(a.segments, 2);
        assert!(!a.notes.is_empty(), "partial iteration was noted");
        let b = RecordedCampaign::digest(&uninterrupted).unwrap();
        let r = compare(&a, &b);
        assert_eq!(r.verdict, Verdict::Match, "{:?}", r.divergence);
        // Two segments: retries are not comparable and must be noted.
        assert!(r.notes.iter().any(|n| n.contains("retries")));
    }

    #[test]
    fn first_divergence_is_pinpointed() {
        let a = journal(vec![
            vec![start()],
            iter_pair(0, 4, 0.5),
            iter_pair(1, 2, 0.25),
            vec![end(0.25)],
        ]);
        let mut b = journal(vec![
            vec![start()],
            iter_pair(0, 4, 0.5),
            iter_pair(1, 3, 0.25),
            vec![end(0.25)],
        ]);
        let ra = RecordedCampaign::digest(&a).unwrap();
        let rb = RecordedCampaign::digest(&b).unwrap();
        let r = compare(&ra, &rb);
        assert_eq!(r.verdict, Verdict::Diverged);
        let d = r.divergence.expect("has divergence");
        assert_eq!(d.location, "iteration 1");
        assert_eq!(d.field, "survivors");
        assert_eq!(d.recorded, "2");
        assert_eq!(d.replayed, "3");
        // The earlier, matching iteration was checked before the stop.
        assert_eq!(r.iterations_checked, 1);

        // A one-ulp cost nudge is caught by the bit comparison.
        b = a.clone();
        if let Event::IterationEnd { best_cost, .. } = &mut b[6].event {
            *best_cost = f64::from_bits(best_cost.to_bits() + 1);
        } else {
            panic!("expected iteration_end at index 6");
        }
        let rb = RecordedCampaign::digest(&b).unwrap();
        let r = compare(&ra, &rb);
        assert_eq!(r.verdict, Verdict::Diverged);
        assert_eq!(r.divergence.unwrap().field, "best_cost_bits");
    }

    #[test]
    fn staged_recording_is_a_prefix_of_the_full_campaign() {
        let staged = journal(vec![
            vec![
                start(),
                entry(Event::CampaignConfig {
                    core: "a53".to_string(),
                    scale: 2048,
                    faults: "none".to_string(),
                    fault_seed: 1,
                    timeout_ms: 0,
                    threads: 1,
                    workers: 0,
                    max_iterations: 1,
                }),
            ],
            iter_pair(0, 4, 0.5),
            vec![end(0.5)],
        ]);
        let full = journal(vec![
            vec![start()],
            iter_pair(0, 4, 0.5),
            iter_pair(1, 2, 0.25),
            vec![end(0.25)],
        ]);
        let a = RecordedCampaign::digest(&staged).unwrap();
        assert!(a.staged);
        let b = RecordedCampaign::digest(&full).unwrap();
        let r = compare(&a, &b);
        assert_eq!(r.verdict, Verdict::PrefixMatch, "{:?}", r.divergence);

        // Without the staging marker the same shape is a divergence.
        let unstaged = journal(vec![vec![start()], iter_pair(0, 4, 0.5), vec![end(0.5)]]);
        let a = RecordedCampaign::digest(&unstaged).unwrap();
        let r = compare(&a, &b);
        assert_eq!(r.verdict, Verdict::Diverged);
        assert_eq!(r.divergence.unwrap().location, "campaign_end");
    }

    #[test]
    fn json_report_has_the_stable_schema() {
        let j = journal(vec![vec![start()], iter_pair(0, 4, 0.5), vec![end(0.5)]]);
        let a = RecordedCampaign::digest(&j).unwrap();
        let r = compare(&a, &a.clone());
        let json = r.render_json();
        for key in [
            "\"schema_version\":1",
            "\"verdict\":\"match\"",
            "\"segments\":",
            "\"iterations_recorded\":",
            "\"iterations_replayed\":",
            "\"iterations_checked\":",
            "\"eliminations_checked\":",
            "\"best_cost_recorded_bits\":",
            "\"best_cost_replayed_bits\":",
            "\"divergence\":null",
            "\"notes\":[",
        ] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
    }
}
