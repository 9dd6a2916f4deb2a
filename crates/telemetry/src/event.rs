//! Typed journal events and their JSONL encoding.
//!
//! Every journal line is one flat JSON object: a `t` field (microseconds
//! since the telemetry handle's epoch), an `ev` discriminator, and the
//! event's own fields. The encoding is append-only friendly: a parser
//! must ignore keys it does not know, so future fields can be added
//! without breaking old readers.

use crate::json::{parse_object, FieldError, Fields, Obj};
use std::fmt;

/// A typed campaign event.
#[derive(Debug, Clone, PartialEq)]
pub enum Event {
    /// A tuning campaign (or resumed segment) began.
    CampaignStart {
        /// RNG seed for the campaign.
        seed: u64,
        /// Total evaluation budget.
        budget: usize,
        /// Number of benchmark instances in the suite.
        n_instances: usize,
        /// Number of tunable parameters.
        n_params: usize,
    },
    /// The campaign's full launch configuration — everything a replay
    /// needs to rebuild the evaluation stack that is not already in
    /// [`Event::CampaignStart`]. Emitted once per segment, before the
    /// tuner starts.
    CampaignConfig {
        /// Core being tuned (`a53` or `a72`).
        core: String,
        /// Dynamic-instruction scale divisor.
        scale: u64,
        /// Fault-injection profile (`none`, `transient`, `aggressive`).
        faults: String,
        /// Seed of the fault plan.
        fault_seed: u64,
        /// Per-evaluation watchdog timeout in milliseconds (0 = none).
        timeout_ms: u64,
        /// Evaluation threads the segment ran with.
        threads: usize,
        /// Spawned worker processes the segment ran with (0 = all
        /// evaluations in-process). Like `threads`, a non-semantic
        /// dimension: it affects wall time only, never the outcome.
        workers: usize,
        /// Iteration cap for this segment (0 = run to completion).
        max_iterations: u64,
    },
    /// One tuning dimension was pinned before any budget was spent
    /// (coverage-based freezing). Emitted once per frozen dimension so a
    /// replay reproduces the same effective search space.
    Frozen {
        /// Parameter name.
        param: String,
        /// Frozen value, in checkpoint code form (`C<i>`, `I<i>`, `F0`/`F1`).
        code: String,
    },
    /// A checkpoint was successfully applied; this segment continues an
    /// earlier campaign rather than starting fresh.
    Resume {
        /// First iteration the resumed run will execute.
        next_iteration: usize,
        /// Evaluations left in the budget after restoring state.
        budget_remaining: usize,
    },
    /// A racing iteration began.
    IterationStart {
        /// Iteration number (0-based, matching the tuner's history).
        iteration: usize,
        /// Number of candidate configurations entering the race.
        configs: usize,
    },
    /// A racing iteration finished.
    IterationEnd {
        /// Iteration number (0-based, matching the tuner's history).
        iteration: usize,
        /// Configurations still alive after elimination.
        survivors: usize,
        /// Best cost seen so far in the campaign.
        best_cost: f64,
        /// Evaluations spent in this iteration.
        evals: usize,
        /// Instance blocks raced in this iteration.
        blocks: usize,
        /// Wall time of the iteration in microseconds.
        micros: u64,
    },
    /// One configuration was evaluated on one workload (simulation ran
    /// and a cost was produced).
    Evaluation {
        /// Workload name.
        workload: String,
        /// Wall time of the evaluation in microseconds.
        micros: u64,
        /// Cost produced (may be non-finite for degenerate models).
        cost: f64,
    },
    /// One hardware measurement attempt completed.
    Measurement {
        /// Workload name.
        workload: String,
        /// Wall time of the measurement in microseconds.
        micros: u64,
        /// Whether the measurement succeeded.
        ok: bool,
    },
    /// A fault surfaced during evaluation or measurement.
    Fault {
        /// Fault class (`transient`, `instance`, `config`).
        kind: String,
        /// Workload the fault occurred on.
        workload: String,
        /// Human-readable description.
        reason: String,
    },
    /// A configuration was eliminated from the race.
    Elimination {
        /// Configuration identifier (parameter summary).
        config: String,
        /// Why it was eliminated (`statistical`, `failed`).
        kind: String,
        /// Instance blocks it survived before elimination.
        after_blocks: usize,
        /// Detail string (test statistic, failure reason, ...).
        reason: String,
    },
    /// A benchmark instance was quarantined.
    Quarantine {
        /// Instance (workload) name.
        instance: String,
        /// Why it was quarantined.
        reason: String,
    },
    /// A checkpoint was written.
    Checkpoint {
        /// Iteration the checkpoint covers.
        iteration: usize,
        /// Path the checkpoint was saved to.
        path: String,
    },
    /// The campaign (or segment) finished.
    CampaignEnd {
        /// Best cost found.
        best_cost: f64,
        /// Total evaluations spent (cumulative across resumes).
        evals: usize,
        /// Total transient retries.
        retries: usize,
        /// Configurations eliminated by persistent failures.
        failed_configs: usize,
        /// Whether the campaign was aborted by cancellation.
        aborted: bool,
        /// Wall time of this segment in microseconds.
        micros: u64,
    },
    /// Final value of one counter.
    CounterFinal {
        /// Metric name.
        name: String,
        /// Final value.
        value: u64,
    },
    /// Final value of one gauge.
    GaugeFinal {
        /// Metric name.
        name: String,
        /// Final value.
        value: u64,
    },
    /// A distributed evaluation worker process was spawned (or
    /// respawned after a failure).
    WorkerSpawned {
        /// Worker slot index (stable across respawns).
        worker: usize,
        /// OS process id of the spawned worker (0 when not applicable,
        /// e.g. in-memory loopback workers in tests).
        pid: u64,
    },
    /// A distributed evaluation worker failed (process exit, torn
    /// frame, handshake mismatch, or per-request timeout). Its in-flight
    /// request was re-dispatched; the failure never surfaces in the
    /// campaign outcome.
    WorkerFailed {
        /// Worker slot index.
        worker: usize,
        /// Classified failure description.
        reason: String,
    },
    /// A worker slot exhausted its respawn budget and was taken out of
    /// rotation for the rest of the campaign.
    WorkerQuarantined {
        /// Worker slot index.
        worker: usize,
        /// Total failures the slot accumulated before quarantine.
        failures: u64,
    },
    /// Final aggregates of one histogram.
    HistogramFinal {
        /// Metric name.
        name: String,
        /// Sample count.
        count: u64,
        /// Sum of samples.
        sum: u64,
        /// 50th percentile.
        p50: u64,
        /// 90th percentile.
        p90: u64,
        /// 99th percentile.
        p99: u64,
        /// Exact maximum.
        max: u64,
    },
}

impl Event {
    /// The `ev` discriminator string this event serializes under.
    pub fn name(&self) -> &'static str {
        match self {
            Event::CampaignStart { .. } => "campaign_start",
            Event::CampaignConfig { .. } => "campaign_config",
            Event::Frozen { .. } => "frozen",
            Event::Resume { .. } => "resume",
            Event::IterationStart { .. } => "iteration_start",
            Event::IterationEnd { .. } => "iteration_end",
            Event::Evaluation { .. } => "evaluation",
            Event::Measurement { .. } => "measurement",
            Event::Fault { .. } => "fault",
            Event::Elimination { .. } => "elimination",
            Event::Quarantine { .. } => "quarantine",
            Event::Checkpoint { .. } => "checkpoint",
            Event::CampaignEnd { .. } => "campaign_end",
            Event::WorkerSpawned { .. } => "worker_spawned",
            Event::WorkerFailed { .. } => "worker_failed",
            Event::WorkerQuarantined { .. } => "worker_quarantined",
            Event::CounterFinal { .. } => "counter",
            Event::GaugeFinal { .. } => "gauge",
            Event::HistogramFinal { .. } => "histogram",
        }
    }
}

/// One journal line: a timestamp plus an event.
#[derive(Debug, Clone, PartialEq)]
pub struct JournalEntry {
    /// Microseconds since the emitting telemetry handle's epoch.
    pub t_us: u64,
    /// The event.
    pub event: Event,
}

/// Why a journal line failed to parse.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JournalError {
    /// The line is not a valid flat JSON object.
    Json(String),
    /// A required field is missing or has the wrong type.
    Field(String),
    /// The `ev` discriminator is unknown.
    UnknownEvent(String),
}

impl fmt::Display for JournalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JournalError::Json(e) => write!(f, "malformed journal line: {e}"),
            JournalError::Field(e) => write!(f, "bad journal field: {e}"),
            JournalError::UnknownEvent(e) => write!(f, "unknown event type {e:?}"),
        }
    }
}

impl std::error::Error for JournalError {}

impl From<FieldError> for JournalError {
    fn from(e: FieldError) -> JournalError {
        JournalError::Field(e.0)
    }
}

impl JournalEntry {
    /// Renders the entry as one JSONL line (no trailing newline).
    pub fn render(&self) -> String {
        let mut o = Obj::new();
        o.u64("t", self.t_us);
        o.str("ev", self.event.name());
        match &self.event {
            Event::CampaignStart {
                seed,
                budget,
                n_instances,
                n_params,
            } => {
                o.u64("seed", *seed)
                    .u64("budget", *budget as u64)
                    .u64("n_instances", *n_instances as u64)
                    .u64("n_params", *n_params as u64);
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
                o.str("core", core)
                    .u64("scale", *scale)
                    .str("faults", faults)
                    .u64("fault_seed", *fault_seed)
                    .u64("timeout_ms", *timeout_ms)
                    .u64("threads", *threads as u64)
                    .u64("workers", *workers as u64)
                    .u64("max_iterations", *max_iterations);
            }
            Event::Frozen { param, code } => {
                o.str("param", param).str("code", code);
            }
            Event::Resume {
                next_iteration,
                budget_remaining,
            } => {
                o.u64("next_iteration", *next_iteration as u64)
                    .u64("budget_remaining", *budget_remaining as u64);
            }
            Event::IterationStart { iteration, configs } => {
                o.u64("iteration", *iteration as u64)
                    .u64("configs", *configs as u64);
            }
            Event::IterationEnd {
                iteration,
                survivors,
                best_cost,
                evals,
                blocks,
                micros,
            } => {
                o.u64("iteration", *iteration as u64)
                    .u64("survivors", *survivors as u64)
                    .f64("best_cost", *best_cost)
                    .u64("evals", *evals as u64)
                    .u64("blocks", *blocks as u64)
                    .u64("micros", *micros);
            }
            Event::Evaluation {
                workload,
                micros,
                cost,
            } => {
                o.str("workload", workload)
                    .u64("micros", *micros)
                    .f64("cost", *cost);
            }
            Event::Measurement {
                workload,
                micros,
                ok,
            } => {
                o.str("workload", workload)
                    .u64("micros", *micros)
                    .bool("ok", *ok);
            }
            Event::Fault {
                kind,
                workload,
                reason,
            } => {
                o.str("kind", kind)
                    .str("workload", workload)
                    .str("reason", reason);
            }
            Event::Elimination {
                config,
                kind,
                after_blocks,
                reason,
            } => {
                o.str("config", config)
                    .str("kind", kind)
                    .u64("after_blocks", *after_blocks as u64)
                    .str("reason", reason);
            }
            Event::Quarantine { instance, reason } => {
                o.str("instance", instance).str("reason", reason);
            }
            Event::Checkpoint { iteration, path } => {
                o.u64("iteration", *iteration as u64).str("path", path);
            }
            Event::CampaignEnd {
                best_cost,
                evals,
                retries,
                failed_configs,
                aborted,
                micros,
            } => {
                o.f64("best_cost", *best_cost)
                    .u64("evals", *evals as u64)
                    .u64("retries", *retries as u64)
                    .u64("failed_configs", *failed_configs as u64)
                    .bool("aborted", *aborted)
                    .u64("micros", *micros);
            }
            Event::WorkerSpawned { worker, pid } => {
                o.u64("worker", *worker as u64).u64("pid", *pid);
            }
            Event::WorkerFailed { worker, reason } => {
                o.u64("worker", *worker as u64).str("reason", reason);
            }
            Event::WorkerQuarantined { worker, failures } => {
                o.u64("worker", *worker as u64).u64("failures", *failures);
            }
            Event::CounterFinal { name, value } => {
                o.str("name", name).u64("value", *value);
            }
            Event::GaugeFinal { name, value } => {
                o.str("name", name).u64("value", *value);
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
                o.str("name", name)
                    .u64("count", *count)
                    .u64("sum", *sum)
                    .u64("p50", *p50)
                    .u64("p90", *p90)
                    .u64("p99", *p99)
                    .u64("max", *max);
            }
        }
        o.finish()
    }

    /// Parses one JSONL line back into an entry. Unknown keys are
    /// ignored; unknown `ev` values are an error.
    pub fn parse(line: &str) -> Result<JournalEntry, JournalError> {
        let f = Fields(parse_object(line).map_err(JournalError::Json)?);
        let t_us = f.u64("t")?;
        let ev = f.str("ev")?;
        let event = match ev.as_str() {
            "campaign_start" => Event::CampaignStart {
                seed: f.u64("seed")?,
                budget: f.usize("budget")?,
                n_instances: f.usize("n_instances")?,
                n_params: f.usize("n_params")?,
            },
            "campaign_config" => Event::CampaignConfig {
                core: f.str("core")?,
                scale: f.u64("scale")?,
                faults: f.str("faults")?,
                fault_seed: f.u64("fault_seed")?,
                timeout_ms: f.u64("timeout_ms")?,
                threads: f.usize("threads")?,
                // Added after journals without it were recorded: absent
                // means the segment predates distributed evaluation.
                workers: f.or("workers", 0, Fields::usize)?,
                max_iterations: f.u64("max_iterations")?,
            },
            "frozen" => Event::Frozen {
                param: f.str("param")?,
                code: f.str("code")?,
            },
            "resume" => Event::Resume {
                next_iteration: f.usize("next_iteration")?,
                budget_remaining: f.usize("budget_remaining")?,
            },
            "iteration_start" => Event::IterationStart {
                iteration: f.usize("iteration")?,
                configs: f.usize("configs")?,
            },
            "iteration_end" => Event::IterationEnd {
                iteration: f.usize("iteration")?,
                survivors: f.usize("survivors")?,
                best_cost: f.f64("best_cost")?,
                evals: f.usize("evals")?,
                blocks: f.usize("blocks")?,
                micros: f.u64("micros")?,
            },
            "evaluation" => Event::Evaluation {
                workload: f.str("workload")?,
                micros: f.u64("micros")?,
                cost: f.f64("cost")?,
            },
            "measurement" => Event::Measurement {
                workload: f.str("workload")?,
                micros: f.u64("micros")?,
                ok: f.bool("ok")?,
            },
            "fault" => Event::Fault {
                kind: f.str("kind")?,
                workload: f.str("workload")?,
                reason: f.str("reason")?,
            },
            "elimination" => Event::Elimination {
                config: f.str("config")?,
                kind: f.str("kind")?,
                after_blocks: f.usize("after_blocks")?,
                reason: f.str("reason")?,
            },
            "quarantine" => Event::Quarantine {
                instance: f.str("instance")?,
                reason: f.str("reason")?,
            },
            "checkpoint" => Event::Checkpoint {
                iteration: f.usize("iteration")?,
                path: f.str("path")?,
            },
            "campaign_end" => Event::CampaignEnd {
                best_cost: f.f64("best_cost")?,
                evals: f.usize("evals")?,
                retries: f.usize("retries")?,
                failed_configs: f.usize("failed_configs")?,
                aborted: f.bool("aborted")?,
                micros: f.u64("micros")?,
            },
            "worker_spawned" => Event::WorkerSpawned {
                worker: f.usize("worker")?,
                pid: f.u64("pid")?,
            },
            "worker_failed" => Event::WorkerFailed {
                worker: f.usize("worker")?,
                reason: f.str("reason")?,
            },
            "worker_quarantined" => Event::WorkerQuarantined {
                worker: f.usize("worker")?,
                failures: f.u64("failures")?,
            },
            "counter" => Event::CounterFinal {
                name: f.str("name")?,
                value: f.u64("value")?,
            },
            "gauge" => Event::GaugeFinal {
                name: f.str("name")?,
                value: f.u64("value")?,
            },
            "histogram" => Event::HistogramFinal {
                name: f.str("name")?,
                count: f.u64("count")?,
                sum: f.u64("sum")?,
                p50: f.u64("p50")?,
                p90: f.u64("p90")?,
                p99: f.u64("p99")?,
                max: f.u64("max")?,
            },
            other => return Err(JournalError::UnknownEvent(other.to_string())),
        };
        Ok(JournalEntry { t_us, event })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(e: Event) {
        let entry = JournalEntry {
            t_us: 1234,
            event: e,
        };
        let line = entry.render();
        let back = JournalEntry::parse(&line).unwrap_or_else(|err| panic!("{line}: {err}"));
        // Compare rendered forms so NaN-carrying events still round-trip.
        assert_eq!(back.render(), line);
    }

    #[test]
    fn every_variant_roundtrips() {
        roundtrip(Event::CampaignStart {
            seed: 42,
            budget: 600,
            n_instances: 7,
            n_params: 5,
        });
        roundtrip(Event::CampaignConfig {
            core: "a53".to_string(),
            scale: 32768,
            faults: "transient".to_string(),
            fault_seed: 7,
            timeout_ms: 0,
            threads: 8,
            workers: 2,
            max_iterations: 1,
        });
        roundtrip(Event::Frozen {
            param: "l2_hash".to_string(),
            code: "C0".to_string(),
        });
        roundtrip(Event::Resume {
            next_iteration: 3,
            budget_remaining: 120,
        });
        roundtrip(Event::IterationStart {
            iteration: 1,
            configs: 12,
        });
        roundtrip(Event::IterationEnd {
            iteration: 1,
            survivors: 4,
            best_cost: 0.0831,
            evals: 60,
            blocks: 5,
            micros: 98_123,
        });
        roundtrip(Event::Evaluation {
            workload: "stream_copy \"q\"".to_string(),
            micros: 812,
            cost: f64::NAN,
        });
        roundtrip(Event::Measurement {
            workload: "ptr_chase".to_string(),
            micros: 55,
            ok: false,
        });
        roundtrip(Event::Fault {
            kind: "transient".to_string(),
            workload: "dep_chain".to_string(),
            reason: "injected transient fault (attempt 2)".to_string(),
        });
        roundtrip(Event::Elimination {
            config: "width=2 rob=32".to_string(),
            kind: "statistical".to_string(),
            after_blocks: 3,
            reason: "friedman p<0.05".to_string(),
        });
        roundtrip(Event::Quarantine {
            instance: "branch_mix".to_string(),
            reason: "dropped on every attempt".to_string(),
        });
        roundtrip(Event::Checkpoint {
            iteration: 2,
            path: "/tmp/run.ckpt".to_string(),
        });
        roundtrip(Event::CampaignEnd {
            best_cost: f64::INFINITY,
            evals: 600,
            retries: 4,
            failed_configs: 1,
            aborted: true,
            micros: 1_234_567,
        });
        roundtrip(Event::CounterFinal {
            name: "cache.hits".to_string(),
            value: u64::MAX,
        });
        roundtrip(Event::GaugeFinal {
            name: "tuner.budget_remaining".to_string(),
            value: 0,
        });
        roundtrip(Event::WorkerSpawned {
            worker: 1,
            pid: 48_213,
        });
        roundtrip(Event::WorkerFailed {
            worker: 0,
            reason: "torn frame: unexpected EOF".to_string(),
        });
        roundtrip(Event::WorkerQuarantined {
            worker: 3,
            failures: 4,
        });
        roundtrip(Event::HistogramFinal {
            name: "sim.run_us".to_string(),
            count: 100,
            sum: 5000,
            p50: 63,
            p90: 127,
            p99: 255,
            max: 201,
        });
    }

    #[test]
    fn campaign_end_with_a_legacy_pruned_key_parses() {
        // The exact shape journals recorded while the tuner had a pruner.
        let line = r#"{"t":5912859,"ev":"campaign_end","best_cost":24.479248065843425,"evals":598,"retries":9,"failed_configs":0,"pruned":0,"aborted":false,"micros":1463141}"#;
        let e = JournalEntry::parse(line).expect("old journals stay parseable");
        assert_eq!(
            e.event,
            Event::CampaignEnd {
                best_cost: 24.479248065843425,
                evals: 598,
                retries: 9,
                failed_configs: 0,
                aborted: false,
                micros: 1_463_141,
            }
        );
    }

    #[test]
    fn campaign_config_without_workers_parses_as_zero() {
        // The exact shape journals recorded before distributed support.
        let line = r#"{"t":9,"ev":"campaign_config","core":"a53","scale":32768,"faults":"none","fault_seed":0,"timeout_ms":0,"threads":4,"max_iterations":0}"#;
        let e = JournalEntry::parse(line).expect("old journals stay parseable");
        match e.event {
            Event::CampaignConfig {
                workers, threads, ..
            } => {
                assert_eq!(workers, 0);
                assert_eq!(threads, 4);
            }
            other => panic!("wrong event {other:?}"),
        }
        // But a present key of the wrong type is still an error.
        let bad = r#"{"t":9,"ev":"campaign_config","core":"a53","scale":1,"faults":"none","fault_seed":0,"timeout_ms":0,"threads":1,"workers":"two","max_iterations":0}"#;
        assert!(matches!(
            JournalEntry::parse(bad),
            Err(JournalError::Field(_))
        ));
    }

    #[test]
    fn unknown_extra_keys_are_ignored() {
        let line = r#"{"t":5,"ev":"quarantine","instance":"x","reason":"r","future_field":1}"#;
        let e = JournalEntry::parse(line).expect("forward-compatible parse");
        assert_eq!(
            e.event,
            Event::Quarantine {
                instance: "x".to_string(),
                reason: "r".to_string()
            }
        );
    }

    #[test]
    fn bad_lines_are_rejected_with_reasons() {
        assert!(matches!(
            JournalEntry::parse("not json"),
            Err(JournalError::Json(_))
        ));
        assert!(matches!(
            JournalEntry::parse(r#"{"t":1,"ev":"warp_drive"}"#),
            Err(JournalError::UnknownEvent(_))
        ));
        assert!(matches!(
            JournalEntry::parse(r#"{"t":1,"ev":"checkpoint","iteration":2}"#),
            Err(JournalError::Field(_))
        ));
        assert!(matches!(
            JournalEntry::parse(r#"{"ev":"resume","next_iteration":1,"budget_remaining":2}"#),
            Err(JournalError::Field(_))
        ));
    }
}
