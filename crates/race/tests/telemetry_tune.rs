//! End-to-end telemetry behaviour of the racing tuner: the journal
//! captures the campaign shape, disabled telemetry is a true no-op that
//! never perturbs the tuning, and a run killed mid-iteration then
//! resumed with an appending journal yields one well-formed file.

use racesim_race::{
    Configuration, EvalError, ParamSpace, RacingTuner, RetryPolicy, TryCostFn, TuneResult,
    TunerSettings,
};
use racesim_telemetry::{parse_journal, Event, Telemetry};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

fn space() -> ParamSpace {
    let mut s = ParamSpace::new();
    s.add_integer("depth", &[1, 2, 4, 8, 16]);
    s.add_integer("width", &[1, 2, 3, 4]);
    s.add_categorical("policy", &["lru", "rand", "fifo"]);
    s.add_bool("prefetch");
    s
}

struct Synthetic;

impl TryCostFn for Synthetic {
    fn try_cost(
        &self,
        cfg: &Configuration,
        space: &ParamSpace,
        instance: usize,
    ) -> Result<f64, EvalError> {
        let d = cfg.integer(space, "depth") as f64;
        let w = cfg.integer(space, "width") as f64;
        let p = match cfg.categorical(space, "policy") {
            "lru" => 0.0,
            "rand" => 0.7,
            _ => 0.3,
        };
        let f = if cfg.flag(space, "prefetch") {
            -0.2
        } else {
            0.0
        };
        Ok((d - 8.0).abs() + (w - 3.0).powi(2) + p + f + (instance % 7) as f64 * 0.05)
    }
}

fn settings(seed: u64) -> TunerSettings {
    let mut st = TunerSettings {
        budget: 900,
        seed,
        ..TunerSettings::default()
    };
    st.race.retry = RetryPolicy::immediate(2);
    st
}

fn tmp(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("racesim_tel_{}_{name}", std::process::id()))
}

fn assert_same_outcome(a: &TuneResult, b: &TuneResult) {
    assert_eq!(a.best, b.best, "best configuration");
    assert_eq!(a.best_cost.to_bits(), b.best_cost.to_bits(), "best cost");
    assert_eq!(a.evals_used, b.evals_used, "evaluations");
    assert_eq!(a.history.len(), b.history.len(), "iterations");
}

#[test]
fn journal_captures_the_campaign_shape() {
    let s = space();
    let tel = Telemetry::in_memory();
    let result = RacingTuner::new(settings(42))
        .with_telemetry(tel.clone())
        .try_tune(&s, &Synthetic, 12);
    assert!(!result.aborted);

    let (entries, warnings) = parse_journal(&tel.lines().join("\n"));
    assert!(warnings.is_empty(), "{warnings:?}");

    // Opens with the campaign header, carrying the run's shape.
    assert!(matches!(
        &entries[0].event,
        Event::CampaignStart {
            seed: 42,
            budget: 900,
            n_instances: 12,
            n_params: 4
        }
    ));

    let count = |pred: &dyn Fn(&Event) -> bool| entries.iter().filter(|e| pred(&e.event)).count();
    let iters = result.history.len();
    assert_eq!(
        count(&|e| matches!(e, Event::IterationStart { .. })),
        iters,
        "one iteration_start per completed iteration"
    );
    assert_eq!(count(&|e| matches!(e, Event::IterationEnd { .. })), iters);
    assert_eq!(count(&|e| matches!(e, Event::CampaignEnd { .. })), 1);

    // The footer and the metric finals agree with the returned result.
    let end = entries
        .iter()
        .find_map(|e| match &e.event {
            Event::CampaignEnd {
                best_cost, evals, ..
            } => Some((*best_cost, *evals)),
            _ => None,
        })
        .expect("campaign_end present");
    assert_eq!(end.0.to_bits(), result.best_cost.to_bits());
    assert_eq!(end.1, result.evals_used as usize);

    let counter_final = |wanted: &str| {
        entries.iter().find_map(|e| match &e.event {
            Event::CounterFinal { name, value } if name == wanted => Some(*value),
            _ => None,
        })
    };
    assert_eq!(counter_final("tuner.evals"), Some(result.evals_used));
    assert_eq!(counter_final("tuner.iterations"), Some(iters as u64));
    assert_eq!(counter_final("cache.hits"), Some(result.cache_hits));
    assert_eq!(counter_final("cache.misses"), Some(result.cache_misses));

    // Eliminations are journaled with rendered configurations.
    let elim = entries.iter().any(
        |e| matches!(&e.event, Event::Elimination { config, kind, .. } if !config.is_empty() && kind == "statistical"),
    );
    assert!(elim, "statistical eliminations must appear in the journal");
}

#[test]
fn cache_counters_reflect_evaluation_reuse() {
    let s = space();
    let result = RacingTuner::new(settings(7)).try_tune(&s, &Synthetic, 12);
    assert!(result.cache_misses > 0, "every first evaluation is a miss");
    assert!(
        result.cache_hits > 0,
        "elites re-raced across iterations must hit the cache"
    );
    let rate = result.cache_hit_rate();
    assert!((0.0..=1.0).contains(&rate), "{rate}");
}

#[test]
fn disabled_and_enabled_telemetry_never_perturb_the_tuning() {
    let s = space();
    let bare = RacingTuner::new(settings(11)).try_tune(&s, &Synthetic, 12);
    let off = RacingTuner::new(settings(11))
        .with_telemetry(Telemetry::disabled())
        .try_tune(&s, &Synthetic, 12);
    let on = RacingTuner::new(settings(11))
        .with_telemetry(Telemetry::in_memory())
        .try_tune(&s, &Synthetic, 12);
    assert_same_outcome(&bare, &off);
    assert_same_outcome(&bare, &on);
}

#[test]
fn disabled_telemetry_records_nothing_through_the_tuner() {
    let s = space();
    let tel = Telemetry::disabled();
    let _ = RacingTuner::new(settings(5))
        .with_telemetry(tel.clone())
        .try_tune(&s, &Synthetic, 12);
    assert!(tel.lines().is_empty());
    let snap = tel.snapshot();
    assert!(snap.counters.is_empty() && snap.gauges.is_empty() && snap.histograms.is_empty());
}

#[test]
fn instrumentation_overhead_stays_small() {
    let s = space();
    // Warm up (allocator, code paths), then time three runs each way and
    // keep the fastest — the bound is deliberately generous; this is a
    // smoke test against pathological slowdowns, not a benchmark.
    let _ = RacingTuner::new(settings(3)).try_tune(&s, &Synthetic, 12);
    let time_one = |tel: Option<Telemetry>| {
        (0..3)
            .map(|_| {
                let mut tuner = RacingTuner::new(settings(3));
                if let Some(t) = &tel {
                    tuner = tuner.with_telemetry(t.clone());
                }
                let t0 = std::time::Instant::now();
                let _ = tuner.try_tune(&s, &Synthetic, 12);
                t0.elapsed()
            })
            .min()
            .unwrap()
    };
    let bare = time_one(None);
    let instrumented = time_one(Some(Telemetry::in_memory()));
    assert!(
        instrumented <= bare * 10 + std::time::Duration::from_millis(250),
        "instrumented tune too slow: {instrumented:?} vs bare {bare:?}"
    );
}

/// A cost function that trips a cancellation flag after a fixed number of
/// evaluations — simulating a kill arriving mid-iteration.
struct KillSwitch {
    after: u64,
    seen: AtomicU64,
    cancel: Arc<AtomicBool>,
}

impl TryCostFn for KillSwitch {
    fn try_cost(
        &self,
        cfg: &Configuration,
        space: &ParamSpace,
        instance: usize,
    ) -> Result<f64, EvalError> {
        if self.seen.fetch_add(1, Ordering::Relaxed) + 1 >= self.after {
            self.cancel.store(true, Ordering::Relaxed);
        }
        Synthetic.try_cost(cfg, space, instance)
    }
}

#[test]
fn killed_then_resumed_run_appends_one_well_formed_journal() {
    let s = space();
    let seed = 0xBEE5;
    let full = RacingTuner::new(settings(seed)).try_tune(&s, &Synthetic, 12);
    assert!(full.history.len() >= 2);
    let first_iter_evals = full.history[0].evals_used;

    let ckpt = tmp("killed.ckpt");
    let journal = tmp("killed.jsonl");
    let _ = std::fs::remove_file(&ckpt);
    let _ = std::fs::remove_file(&journal);

    // Segment 1: killed partway through the second iteration. The
    // journal file is created fresh (truncate).
    let cancel = Arc::new(AtomicBool::new(false));
    let killer = KillSwitch {
        after: first_iter_evals + 3,
        seen: AtomicU64::new(0),
        cancel: Arc::clone(&cancel),
    };
    let tel1 = Telemetry::to_file(&journal, false).expect("journal opens");
    let killed = RacingTuner::new(settings(seed))
        .with_checkpoint(&ckpt)
        .with_cancel(cancel)
        .with_telemetry(tel1.clone())
        .try_tune(&s, &killer, 12);
    assert!(killed.aborted);
    tel1.flush();
    assert_eq!(tel1.io_errors(), 0);

    // Segment 2: resumed from the checkpoint, journal appended.
    let tel2 = Telemetry::to_file(&journal, true).expect("journal reopens");
    let resumed = RacingTuner::new(settings(seed))
        .with_checkpoint(&ckpt)
        .with_resume(&ckpt)
        .with_telemetry(tel2.clone())
        .try_tune(&s, &Synthetic, 12);
    assert!(!resumed.aborted);
    assert!(resumed.warnings.is_empty(), "{:?}", resumed.warnings);
    assert_same_outcome(&full, &resumed);
    tel2.flush();
    assert_eq!(tel2.io_errors(), 0);

    // The merged journal parses cleanly and shows both segments.
    let text = std::fs::read_to_string(&journal).expect("journal readable");
    let (entries, warnings) = parse_journal(&text);
    assert!(warnings.is_empty(), "{warnings:?}");
    let count = |pred: &dyn Fn(&Event) -> bool| entries.iter().filter(|e| pred(&e.event)).count();
    assert_eq!(count(&|e| matches!(e, Event::CampaignStart { .. })), 2);
    assert_eq!(count(&|e| matches!(e, Event::CampaignEnd { .. })), 2);
    assert_eq!(count(&|e| matches!(e, Event::Resume { .. })), 1);
    assert!(count(&|e| matches!(e, Event::Checkpoint { .. })) >= 1);

    // The resume event picks up after the last checkpointed iteration.
    let next = entries
        .iter()
        .find_map(|e| match &e.event {
            Event::Resume { next_iteration, .. } => Some(*next_iteration),
            _ => None,
        })
        .unwrap();
    assert!(next >= 1, "resume continues past iteration 0, got {next}");

    let _ = std::fs::remove_file(&ckpt);
    let _ = std::fs::remove_file(&journal);
}
