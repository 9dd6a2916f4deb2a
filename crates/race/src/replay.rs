//! The one digest of a telemetry journal, and deterministic campaign
//! replay on top of it.
//!
//! [`RecordedCampaign::digest`] reads a journal once, for every reader:
//! `racesim report` renders it, `CampaignSpec::from_journal` rebuilds the
//! campaign's inputs from it, and `racesim replay` digests a fresh re-run
//! the same way and [`compare`]s the two **bit for bit**.
//!
//! # Merge rules
//!
//! A journal may hold several process segments (checkpoint → kill →
//! resume appends to the same file); a segment is one `campaign_start`.
//! The digest merges them under these rules, stated here and nowhere
//! else:
//!
//! * the **first** `campaign_config` and `campaign_start` win: every
//!   segment re-records them, so a resume with drifted flags cannot
//!   rewrite them. The campaign is *staged* when any `campaign_config`
//!   carries an iteration cap;
//! * `frozen` pairs are deduplicated by parameter, the first one winning;
//! * an iteration counts once its `iteration_start` is followed by the
//!   matching `iteration_end`, keyed by number with the **last**
//!   occurrence winning (a killed partial iteration is redone by the
//!   resumed segment). An `iteration_start` without a matching end is
//!   discarded with a note, together with the eliminations that followed
//!   it, as the tuner discards that work on resume;
//! * quarantines are deduplicated by instance, in journal order;
//! * the **last** `campaign_end` gives the totals (they are cumulative
//!   across resumes); wall time is summed over every segment;
//! * the report-only [`JournalTallies`] count every event as it stands,
//!   discarded iterations included; counters are summed over segments
//!   (each process restarts them at zero) and gauges and histograms keep
//!   the last segment's values.
//!
//! # What replay compares
//!
//! All of it deterministic given seed, space, suite and fault plan
//! (DESIGN.md §7 names the tests that hold this):
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
//! `t`), the tallies (the interleaving of `evaluation`/`measurement`/
//! `fault` events is thread-schedule dependent), `checkpoint`/`resume`
//! bookkeeping, and — for journals spanning multiple resumed segments —
//! the `retries` total, because a resumed process re-measures instances
//! whose measurements only lived in its predecessor's memory, repeating
//! their transient-fault retries.

use racesim_telemetry::json;
use racesim_telemetry::{Event, JournalEntry};
use std::collections::BTreeMap;
use std::fmt;

/// The first `campaign_config`: the evaluation stack a replay rebuilds.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConfigRecord {
    /// `--core` name.
    pub core: String,
    /// Dynamic-instruction scale divisor.
    pub scale: u64,
    /// Fault-injection profile name.
    pub faults: String,
    /// Fault-plan seed.
    pub fault_seed: u64,
    /// Per-evaluation watchdog timeout in milliseconds (0 = none).
    pub timeout_ms: u64,
    /// Evaluation threads.
    pub threads: usize,
    /// Evaluation worker processes (0 = in-process).
    pub workers: usize,
}

/// The first `campaign_start`: the campaign setup replay compares.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StartRecord {
    /// RNG seed.
    pub seed: u64,
    /// Evaluation budget.
    pub budget: usize,
    /// Benchmark instances in the suite.
    pub n_instances: usize,
    /// Tunable parameters.
    pub n_params: usize,
}

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

/// One completed iteration: its deterministic skeleton and its wall time.
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
    /// Wall time of the iteration in microseconds (never compared).
    pub micros: u64,
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

/// What `racesim report` shows beyond the campaign skeleton. Never
/// compared by replay.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct JournalTallies {
    /// Wall time summed over every segment's `campaign_end`, in µs.
    pub wall_us: u64,
    /// workload → (evaluations, cost sum, wall-time sum in µs).
    pub evaluations: BTreeMap<String, (u64, f64, u64)>,
    /// Measurements that succeeded.
    pub measurements_ok: u64,
    /// Measurements that failed.
    pub measurements_failed: u64,
    /// fault kind → injected faults seen.
    pub faults: BTreeMap<String, u64>,
    /// Worker processes spawned (including respawns after failures).
    pub worker_spawns: u64,
    /// The slowest spawn's launch-to-`ready` time, in milliseconds.
    pub worker_init_ms_max: u64,
    /// (worker slot, reason) per worker failure, in journal order.
    pub worker_failures: Vec<(usize, String)>,
    /// (worker slot, failures at quarantine time), in journal order.
    pub worker_quarantines: Vec<(usize, u64)>,
    /// Checkpoints written.
    pub checkpoints: u64,
    /// event name → journal entries of that kind.
    pub events: BTreeMap<String, u64>,
    /// Counters, summed over segments.
    pub counters: BTreeMap<String, u64>,
    /// Gauges, from the last segment that reported each.
    pub gauges: BTreeMap<String, u64>,
    /// name → [count, sum, p50, p90, p99, max], from the last segment
    /// that reported each.
    pub histograms: BTreeMap<String, [u64; 6]>,
}

/// A journal digested under the module's merge rules: the campaign's
/// inputs, its deterministic skeleton (what replay verifies) and the
/// report-only tallies.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RecordedCampaign {
    /// The first `campaign_config` (journals predating replay support
    /// have none).
    pub config: Option<ConfigRecord>,
    /// Dimensions pinned before sampling, as (parameter, value code).
    pub frozen: Vec<(String, String)>,
    /// The first `campaign_start`, if any.
    pub start: Option<StartRecord>,
    /// Process segments merged into this record.
    pub segments: usize,
    /// `resume` events: segments that restored a checkpoint.
    pub resumes: usize,
    /// True when any segment ran under an iteration cap (staged run) —
    /// such a journal may be a prefix of the full campaign.
    pub staged: bool,
    /// Completed iterations, keyed by iteration number.
    pub iterations: BTreeMap<usize, IterationRecord>,
    /// Quarantined instances as (instance, reason), deduplicated.
    pub quarantines: Vec<(String, String)>,
    /// Totals from the last `campaign_end`, if any.
    pub end: Option<EndRecord>,
    /// Report-only tallies.
    pub tallies: JournalTallies,
    /// Digest-time observations (discarded partial iterations, ...).
    pub notes: Vec<String>,
}

impl RecordedCampaign {
    /// Digests journal entries in one pass, merging resumed segments
    /// under the module's merge rules. Any journal digests; readers that
    /// need a `campaign_start` or `campaign_config` check for it.
    pub fn digest(entries: &[JournalEntry]) -> RecordedCampaign {
        let mut c = RecordedCampaign::default();
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
        let t = &mut c.tallies;
        for e in entries {
            *t.events.entry(e.event.name().to_string()).or_default() += 1;
            match &e.event {
                Event::CampaignStart {
                    seed,
                    budget,
                    n_instances,
                    n_params,
                } => {
                    discard_open(&mut open, &mut c.notes);
                    c.segments += 1;
                    c.start.get_or_insert(StartRecord {
                        seed: *seed,
                        budget: *budget,
                        n_instances: *n_instances,
                        n_params: *n_params,
                    });
                }
                Event::CampaignConfig {
                    core,
                    scale,
                    faults,
                    fault_seed,
                    timeout_ms,
                    threads,
                    workers,
                    max_iterations,
                } => {
                    c.staged |= *max_iterations != 0;
                    c.config.get_or_insert_with(|| ConfigRecord {
                        core: core.clone(),
                        scale: *scale,
                        faults: faults.clone(),
                        fault_seed: *fault_seed,
                        timeout_ms: *timeout_ms,
                        threads: *threads,
                        workers: *workers,
                    });
                }
                Event::Frozen { param, code } => {
                    if !c.frozen.iter().any(|(p, _)| p == param) {
                        c.frozen.push((param.clone(), code.clone()));
                    }
                }
                Event::Resume { .. } => c.resumes += 1,
                Event::IterationStart { iteration, configs } => {
                    discard_open(&mut open, &mut c.notes);
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
                    match c.quarantines.iter_mut().find(|(i, _)| i == instance) {
                        Some((_, r)) => r.clone_from(reason),
                        None => c.quarantines.push((instance.clone(), reason.clone())),
                    }
                }
                Event::IterationEnd {
                    iteration,
                    survivors,
                    best_cost,
                    evals,
                    blocks,
                    micros,
                } => match open.take() {
                    Some((n, configs, eliminations)) if n == *iteration => {
                        c.iterations.insert(
                            *iteration,
                            IterationRecord {
                                configs,
                                survivors: *survivors,
                                best_cost_bits: best_cost.to_bits(),
                                evals: *evals,
                                blocks: *blocks,
                                micros: *micros,
                                eliminations,
                            },
                        );
                    }
                    other => {
                        open = other;
                        discard_open(&mut open, &mut c.notes);
                        c.notes.push(format!(
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
                    micros,
                } => {
                    discard_open(&mut open, &mut c.notes);
                    c.end = Some(EndRecord {
                        best_cost_bits: best_cost.to_bits(),
                        evals: *evals,
                        retries: *retries,
                        failed_configs: *failed_configs,
                        aborted: *aborted,
                    });
                    t.wall_us += micros;
                }
                Event::Evaluation {
                    workload,
                    micros,
                    cost,
                } => {
                    let slot = t.evaluations.entry(workload.clone()).or_default();
                    slot.0 += 1;
                    slot.1 += cost;
                    slot.2 += micros;
                }
                Event::Measurement { ok: true, .. } => t.measurements_ok += 1,
                Event::Measurement { ok: false, .. } => t.measurements_failed += 1,
                Event::Fault { kind, .. } => *t.faults.entry(kind.clone()).or_default() += 1,
                Event::WorkerSpawned { init_ms, .. } => {
                    t.worker_spawns += 1;
                    t.worker_init_ms_max = t.worker_init_ms_max.max(*init_ms);
                }
                Event::WorkerFailed { worker, reason } => {
                    t.worker_failures.push((*worker, reason.clone()));
                }
                Event::WorkerQuarantined { worker, failures } => {
                    t.worker_quarantines.push((*worker, *failures));
                }
                Event::Checkpoint { .. } => t.checkpoints += 1,
                Event::CounterFinal { name, value } => {
                    *t.counters.entry(name.clone()).or_default() += value;
                }
                Event::GaugeFinal { name, value } => {
                    t.gauges.insert(name.clone(), *value);
                }
                Event::HistogramFinal {
                    name,
                    count,
                    sum,
                    p50,
                    p90,
                    p99,
                    max,
                } => {
                    t.histograms
                        .insert(name.clone(), [*count, *sum, *p50, *p90, *p99, *max]);
                }
            }
        }
        discard_open(&mut open, &mut c.notes);
        c
    }

    /// Eliminations of the completed iterations, in iteration order.
    pub fn eliminations(&self) -> impl Iterator<Item = &EliminationRecord> {
        self.iterations.values().flat_map(|it| &it.eliminations)
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
    let (Some(rec), Some(rep)) = (recorded.start, replayed.start) else {
        let has = |s: Option<StartRecord>| if s.is_some() { "yes" } else { "missing" };
        let d = diverged(
            "campaign_start",
            "present",
            has(recorded.start).into(),
            has(replayed.start).into(),
        );
        return report(Verdict::Diverged, d, notes);
    };
    for (field, a, b) in [
        ("seed", rec.seed, rep.seed),
        ("budget", rec.budget as u64, rep.budget as u64),
        (
            "n_instances",
            rec.n_instances as u64,
            rep.n_instances as u64,
        ),
        ("n_params", rec.n_params as u64, rep.n_params as u64),
    ] {
        if a != b {
            let d = diverged("campaign_start", field, a.to_string(), b.to_string());
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
        match replayed.quarantines.iter().find(|(i, _)| i == instance) {
            None => {
                let d = diverged("quarantine", instance, reason.clone(), "missing".into());
                return report(Verdict::Diverged, d, notes);
            }
            Some((_, r)) if r != reason => {
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
        let a = RecordedCampaign::digest(&j);
        let b = RecordedCampaign::digest(&j);
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
        let ra = RecordedCampaign::digest(&a);
        let rb = RecordedCampaign::digest(&b);
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
        let a = RecordedCampaign::digest(&rec);
        assert_eq!(a.segments, 2);
        assert!(!a.notes.is_empty(), "partial iteration was noted");
        let b = RecordedCampaign::digest(&uninterrupted);
        let r = compare(&a, &b);
        assert_eq!(r.verdict, Verdict::Match, "{:?}", r.divergence);
        // Two segments: retries are not comparable and must be noted.
        assert!(r.notes.iter().any(|n| n.contains("retries")));
    }

    #[test]
    fn segments_merge_under_one_set_of_rules() {
        let config = |core: &str, max_iterations| {
            entry(Event::CampaignConfig {
                core: core.to_string(),
                scale: 2048,
                faults: "none".to_string(),
                fault_seed: 1,
                timeout_ms: 0,
                threads: 1,
                workers: 0,
                max_iterations,
            })
        };
        let frozen = |param: &str, code: &str| {
            entry(Event::Frozen {
                param: param.to_string(),
                code: code.to_string(),
            })
        };
        let quarantine = |reason: &str| {
            entry(Event::Quarantine {
                instance: "instance 2".to_string(),
                reason: reason.to_string(),
            })
        };
        let metrics = |counter, gauge| {
            vec![
                entry(Event::CounterFinal {
                    name: "c".to_string(),
                    value: counter,
                }),
                entry(Event::GaugeFinal {
                    name: "g".to_string(),
                    value: gauge,
                }),
            ]
        };
        let resume = entry(Event::Resume {
            next_iteration: 1,
            budget_remaining: 80,
        });
        let drifted_start = entry(Event::CampaignStart {
            seed: 8,
            budget: 100,
            n_instances: 4,
            n_params: 3,
        });
        let j = journal(vec![
            // Segment 1: staged, one iteration.
            vec![config("a53", 1), frozen("x", "C0"), start()],
            iter_pair(0, 4, 0.5),
            vec![quarantine("first"), end(0.5)],
            metrics(5, 1),
            // Segment 2: resumed with drifted flags, killed in iteration 1.
            vec![config("a72", 0), frozen("x", "C1"), frozen("y", "F1")],
            vec![drifted_start.clone(), resume.clone()],
            vec![
                entry(Event::IterationStart {
                    iteration: 1,
                    configs: 8,
                }),
                entry(Event::Evaluation {
                    workload: "MD".to_string(),
                    micros: 3,
                    cost: 1.0,
                }),
                entry(Event::Elimination {
                    config: "torn".to_string(),
                    kind: "statistical".to_string(),
                    after_blocks: 1,
                    reason: String::new(),
                }),
            ],
            // Segment 3: resumed again, redoes iteration 1 and finishes.
            vec![config("a72", 0), drifted_start, resume],
            iter_pair(1, 2, 0.25),
            vec![quarantine("second"), end(0.25)],
            metrics(2, 3),
        ]);
        let c = RecordedCampaign::digest(&j);
        assert_eq!(c.config.as_ref().map(|c| c.core.as_str()), Some("a53"));
        assert!(c.staged);
        let pair = |p: &str, v: &str| (p.to_string(), v.to_string());
        assert_eq!(c.frozen, [pair("x", "C0"), pair("y", "F1")]);
        assert_eq!(c.start.map(|s| s.seed), Some(7));
        assert_eq!((c.segments, c.resumes), (3, 2));
        assert_eq!(c.iterations.keys().copied().collect::<Vec<_>>(), [0, 1]);
        let elims: Vec<&str> = c.eliminations().map(|e| e.config.as_str()).collect();
        assert_eq!(
            elims,
            ["cfg0", "cfg1"],
            "the killed iteration's are discarded"
        );
        assert!(c.notes.iter().any(|n| n.starts_with("iteration 1 has no")));
        assert_eq!(c.quarantines, [pair("instance 2", "second")]);
        assert_eq!(c.end.map(|e| e.best_cost_bits), Some(0.25f64.to_bits()));
        let t = &c.tallies;
        assert_eq!(t.evaluations["MD"].0, 1, "discarded work still counts");
        assert_eq!((t.counters["c"], t.gauges["g"]), (7, 3));
        assert_eq!((t.events["iteration_start"], t.wall_us), (3, 10));
    }

    #[test]
    fn a_journal_without_campaign_start_digests_but_never_matches() {
        let j = journal(vec![iter_pair(0, 4, 0.5), vec![end(0.5)]]);
        let a = RecordedCampaign::digest(&j);
        assert_eq!((a.start, a.segments), (None, 0));
        assert_eq!(a.iterations.len(), 1);
        let b = RecordedCampaign::digest(&journal(vec![vec![start()], j]));
        let d = compare(&a, &b).divergence.expect("diverges");
        assert_eq!(
            (d.location.as_str(), d.field.as_str()),
            ("campaign_start", "present")
        );
        assert_eq!(
            (d.recorded.as_str(), d.replayed.as_str()),
            ("missing", "yes")
        );
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
        let ra = RecordedCampaign::digest(&a);
        let rb = RecordedCampaign::digest(&b);
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
        let rb = RecordedCampaign::digest(&b);
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
        let a = RecordedCampaign::digest(&staged);
        assert!(a.staged);
        let b = RecordedCampaign::digest(&full);
        let r = compare(&a, &b);
        assert_eq!(r.verdict, Verdict::PrefixMatch, "{:?}", r.divergence);

        // Without the staging marker the same shape is a divergence.
        let unstaged = journal(vec![vec![start()], iter_pair(0, 4, 0.5), vec![end(0.5)]]);
        let a = RecordedCampaign::digest(&unstaged);
        let r = compare(&a, &b);
        assert_eq!(r.verdict, Verdict::Diverged);
        assert_eq!(r.divergence.unwrap().location, "campaign_end");
    }

    #[test]
    fn json_report_has_the_stable_schema() {
        let j = journal(vec![vec![start()], iter_pair(0, 4, 0.5), vec![end(0.5)]]);
        let a = RecordedCampaign::digest(&j);
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
