//! The iterated-racing loop.

use crate::cache::CostCache;
use crate::checkpoint::TunerCheckpoint;
use crate::error::{EvalError, Quarantine};
use crate::model::SamplingModel;
use crate::param::{Configuration, ParamSpace, Value};
use crate::race::{race, EvalDispatch, RaceContext, RaceLogEntry, RaceProf, RaceSettings};
use racesim_telemetry::{Event, Profiler, Telemetry};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use std::path::PathBuf;
use std::sync::atomic::AtomicBool;
use std::sync::Arc;

/// An infallible cost function the tuner minimises.
///
/// In the paper's setting, the cost of a configuration on an instance is
/// the simulator's CPI-prediction error against the hardware measurement
/// for one micro-benchmark. Pure simulation against pre-recorded
/// measurements cannot fail; cost functions that talk to live hardware
/// (or can hang, panic, or produce non-finite CPI) should implement
/// [`TryCostFn`] instead — every [`CostFn`] is automatically a
/// [`TryCostFn`] whose non-finite results are rejected as
/// [`EvalError::Config`] faults.
pub trait CostFn: Sync {
    /// The cost of `cfg` on benchmark `instance` (lower is better).
    fn cost(&self, cfg: &Configuration, space: &ParamSpace, instance: usize) -> f64;
}

impl<F> CostFn for F
where
    F: Fn(&Configuration, &ParamSpace, usize) -> f64 + Sync,
{
    fn cost(&self, cfg: &Configuration, space: &ParamSpace, instance: usize) -> f64 {
        self(cfg, space, instance)
    }
}

/// A fallible cost function: what the racing layer actually consumes.
///
/// Failures are classified by [`EvalError`] into board-side faults
/// (retried, then the *instance* is quarantined) and config-side faults
/// (the *configuration* is eliminated with a logged reason). Every
/// [`CostFn`] implements this trait via a blanket adapter that rejects
/// non-finite costs at the boundary.
pub trait TryCostFn: Sync {
    /// The cost of `cfg` on benchmark `instance`, or a classified fault.
    fn try_cost(
        &self,
        cfg: &Configuration,
        space: &ParamSpace,
        instance: usize,
    ) -> Result<f64, EvalError>;
}

impl<C: CostFn + ?Sized> TryCostFn for C {
    fn try_cost(
        &self,
        cfg: &Configuration,
        space: &ParamSpace,
        instance: usize,
    ) -> Result<f64, EvalError> {
        let c = self.cost(cfg, space, instance);
        if c.is_finite() {
            Ok(c)
        } else {
            Err(EvalError::Config(format!("non-finite cost {c}")))
        }
    }
}

/// Adapts a `&dyn CostFn` (unsized, so the blanket impl's trait-object
/// coercion cannot apply) into a [`TryCostFn`].
struct Fallible<'a>(&'a dyn CostFn);

impl TryCostFn for Fallible<'_> {
    fn try_cost(
        &self,
        cfg: &Configuration,
        space: &ParamSpace,
        instance: usize,
    ) -> Result<f64, EvalError> {
        self.0.try_cost(cfg, space, instance)
    }
}

/// Settings of the iterated-racing tuner.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TunerSettings {
    /// Maximum fresh cost evaluations ("the algorithm stops after a
    /// configurable maximum number of trials"; the paper budgets 10 K to
    /// 100 K).
    pub budget: u64,
    /// Race settings (significance level, first test, survivor floor,
    /// retry policy).
    pub race: RaceSettings,
    /// Elites kept between iterations.
    pub n_elites: usize,
    /// Worker threads for parallel evaluation.
    pub threads: usize,
    /// RNG seed — runs are fully deterministic given the seed.
    pub seed: u64,
    /// Optional wall-clock limit: the tuner starts no new iteration after
    /// this many seconds ("the user can define criteria to terminate the
    /// tuning process, e.g. … a maximum finite time"). Measured from the
    /// start of the current process — a resumed run restarts the clock.
    pub max_seconds: Option<u64>,
    /// Optional cap on iterations run *in this process*. The natural
    /// iteration count (`2 + ⌊log₂ #params⌋`) still bounds the schedule;
    /// this stops earlier — after the checkpoint for the last completed
    /// iteration is written — which makes deterministic kill-and-resume
    /// tests (and operator-driven staged runs) possible.
    pub max_iterations: Option<usize>,
}

impl Default for TunerSettings {
    fn default() -> TunerSettings {
        TunerSettings {
            budget: 2_000,
            race: RaceSettings::default(),
            n_elites: 4,
            threads: 1,
            seed: 0xBADC_AB1E,
            max_seconds: None,
            max_iterations: None,
        }
    }
}

/// Summary of one tuner iteration, for reporting and Figure-2-style
/// plots.
#[derive(Debug, Clone)]
pub struct IterationSummary {
    /// Iteration number (0-based).
    pub iteration: usize,
    /// Configurations raced.
    pub configs_raced: usize,
    /// Instances (blocks) the race consumed.
    pub blocks_used: usize,
    /// Fresh evaluations consumed.
    pub evals_used: u64,
    /// Best mean cost seen at the end of the iteration.
    pub best_cost: f64,
    /// Elimination/failure log of the race.
    pub eliminations: Vec<RaceLogEntry>,
}

/// Result of a tuning run.
#[derive(Debug, Clone)]
pub struct TuneResult {
    /// The best configuration found.
    pub best: Configuration,
    /// Its mean cost over the instances it was raced on.
    pub best_cost: f64,
    /// The final elite set, best first.
    pub elites: Vec<(Configuration, f64)>,
    /// Fresh evaluations actually used.
    pub evals_used: u64,
    /// Per-iteration summaries.
    pub history: Vec<IterationSummary>,
    /// Instances quarantined as unmeasurable, with reasons.
    pub quarantined: Vec<(usize, String)>,
    /// Configurations eliminated because their evaluation failed.
    pub failed_configs: u64,
    /// Transient-fault retries performed.
    pub retries: u64,
    /// True when the run was cancelled before its schedule completed.
    pub aborted: bool,
    /// Cost-cache lookups answered from the cache (evaluations avoided).
    pub cache_hits: u64,
    /// Cost-cache lookups that required a fresh evaluation.
    pub cache_misses: u64,
    /// Non-fatal conditions worth surfacing (checkpoint I/O problems,
    /// ignored resume files).
    pub warnings: Vec<String>,
}

impl TuneResult {
    /// Fraction of cost-cache lookups answered from the cache, or 0.0
    /// when nothing was looked up.
    pub fn cache_hit_rate(&self) -> f64 {
        let total = self.cache_hits + self.cache_misses;
        if total == 0 {
            0.0
        } else {
            self.cache_hits as f64 / total as f64
        }
    }
}

/// Anything that can search a parameter space against a cost function —
/// implemented by [`RacingTuner`] and the baselines.
pub trait Tuner {
    /// Minimises `cost` over `space`, evaluating on `n_instances`
    /// benchmark instances.
    fn tune(&self, space: &ParamSpace, cost: &dyn CostFn, n_instances: usize) -> TuneResult;
}

/// The iterated-racing tuner (irace reimplementation).
#[derive(Clone)]
pub struct RacingTuner {
    settings: TunerSettings,
    frozen: Vec<(usize, Value)>,
    checkpoint: Option<PathBuf>,
    resume: Option<PathBuf>,
    cancel: Option<Arc<AtomicBool>>,
    telemetry: Telemetry,
    profiler: Profiler,
    dispatch: Option<Arc<dyn EvalDispatch + Send + Sync>>,
}

impl std::fmt::Debug for RacingTuner {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RacingTuner")
            .field("settings", &self.settings)
            .field("frozen", &self.frozen)
            .field("checkpoint", &self.checkpoint)
            .field("resume", &self.resume)
            .field("telemetry", &self.telemetry)
            .field("profiler", &self.profiler)
            .field("dispatch", &self.dispatch)
            .finish_non_exhaustive()
    }
}

impl RacingTuner {
    /// Creates a tuner with the given settings.
    pub fn new(settings: TunerSettings) -> RacingTuner {
        RacingTuner {
            settings,
            frozen: Vec::new(),
            checkpoint: None,
            resume: None,
            cancel: None,
            telemetry: Telemetry::disabled(),
            profiler: Profiler::disabled(),
            dispatch: None,
        }
    }

    /// Installs an evaluation dispatch backend: every race block's fresh
    /// evaluations are handed to it as one batch instead of running on
    /// the in-process thread pool. The [`EvalDispatch`] contract makes
    /// this outcome-invariant — the distributed coordinator uses it to
    /// shard evaluations across worker processes while keeping the tune
    /// bit-identical to a sequential run.
    pub fn with_dispatch(mut self, dispatch: Arc<dyn EvalDispatch + Send + Sync>) -> RacingTuner {
        self.dispatch = Some(dispatch);
        self
    }

    /// Freezes dimensions to fixed values: every sampled configuration
    /// has each `(index, value)` pair applied *before* deduplication and
    /// racing, so no simulation budget is ever spent exploring a frozen
    /// dimension. The parameter stays in the space
    /// (apply functions and checkpoint fingerprints still see it); only
    /// its sampling freedom is removed.
    ///
    /// The campaign analyzer uses this to pin dimensions its coverage
    /// matrix proves no kernel in the suite can observe.
    pub fn with_frozen(mut self, frozen: Vec<(usize, Value)>) -> RacingTuner {
        self.frozen = frozen;
        self
    }

    /// Writes a [`TunerCheckpoint`] to `path` (atomically: temp file,
    /// then rename) after every completed iteration.
    pub fn with_checkpoint(mut self, path: impl Into<PathBuf>) -> RacingTuner {
        self.checkpoint = Some(path.into());
        self
    }

    /// Resumes from the checkpoint at `path`, if it exists and matches
    /// this run (same seed, same parameter space, same instance count).
    /// A missing file starts a fresh run; a mismatched or corrupt one is
    /// ignored with a [`TuneResult::warnings`] entry.
    pub fn with_resume(mut self, path: impl Into<PathBuf>) -> RacingTuner {
        self.resume = Some(path.into());
        self
    }

    /// Installs a cooperative cancellation flag, checked between race
    /// blocks. A cancelled run returns with [`TuneResult::aborted`] set;
    /// the partially-raced iteration is discarded, so resuming from the
    /// last checkpoint replays it exactly.
    pub fn with_cancel(mut self, cancel: Arc<AtomicBool>) -> RacingTuner {
        self.cancel = Some(cancel);
        self
    }

    /// Attaches a telemetry handle: campaign/iteration/elimination events
    /// go to its journal and tuner counters to its metrics registry. The
    /// default handle is disabled, which costs nothing.
    pub fn with_telemetry(mut self, telemetry: Telemetry) -> RacingTuner {
        self.telemetry = telemetry;
        self
    }

    /// Attaches a self-profiler: the tuner records wall time into the
    /// phase tree `tune → iteration → {sample, simulate, rank,
    /// eliminate, checkpoint}`. The default handle is disabled, which
    /// costs one branch per phase boundary.
    pub fn with_profiler(mut self, profiler: Profiler) -> RacingTuner {
        self.profiler = profiler;
        self
    }

    /// The settings in use.
    pub fn settings(&self) -> &TunerSettings {
        &self.settings
    }

    /// The fallible core of [`Tuner::tune`]: minimises `cost` over
    /// `space`, surviving evaluation faults, and — when configured —
    /// checkpointing after every iteration and resuming from a prior
    /// checkpoint.
    ///
    /// # Panics
    ///
    /// Panics if `n_instances` is zero or `space` is empty — both
    /// indicate a caller bug, not a runtime condition.
    pub fn try_tune(
        &self,
        space: &ParamSpace,
        cost: &dyn TryCostFn,
        n_instances: usize,
    ) -> TuneResult {
        assert!(n_instances > 0, "need at least one instance");
        assert!(!space.is_empty(), "need at least one parameter");
        let st = &self.settings;
        let mut warnings = Vec::new();

        // irace: N_iter = 2 + floor(log2(#params)).
        let n_iters = 2 + (space.len() as f64).log2().floor() as usize;
        let stop_after = st.max_iterations.map_or(n_iters, |cap| cap.min(n_iters));

        let mut rng = StdRng::seed_from_u64(st.seed);
        let mut model = SamplingModel::new(space);
        let cache = CostCache::new();
        let quarantine = Quarantine::new();
        let mut budget = st.budget;
        let mut elites: Vec<(Configuration, f64)> = Vec::new();
        let mut history = Vec::new();
        let mut evals_total = 0u64;
        let mut retries_total = 0u64;
        let mut failed_total = 0u64;
        let mut first_iter = 0usize;

        // Self-profiler phase handles: all disabled (zero-cost) unless a
        // profiler was attached with `with_profiler`.
        let prof_on = self.profiler.is_enabled();
        let p_tune = self.profiler.timer("tune");
        let p_iter = p_tune.child("iteration");
        let p_sample = p_iter.child("sample");
        let p_checkpoint = p_iter.child("checkpoint");
        let race_prof = RaceProf::new(&p_iter);
        let t_tune = prof_on.then(std::time::Instant::now);

        let tel = &self.telemetry;
        let campaign_sw = tel.stopwatch();
        tel.emit(Event::CampaignStart {
            seed: st.seed,
            budget: st.budget as usize,
            n_instances,
            n_params: space.len(),
        });
        let m_iterations = tel.counter("tuner.iterations");
        let m_evals = tel.counter("tuner.evals");
        let m_retries = tel.counter("tuner.retries");
        let m_failed = tel.counter("tuner.failed_configs");
        let m_eliminations = tel.counter("tuner.eliminations");
        let m_quarantined = tel.counter("tuner.quarantined");
        let g_budget = tel.gauge("tuner.budget_remaining");
        let h_iter_us = tel.histogram("tuner.iteration_us");

        if let Some(path) = &self.resume {
            match TunerCheckpoint::read(path, space) {
                Ok(cp) => match cp.validate(space, st, n_instances) {
                    Ok(()) => {
                        first_iter = cp.next_iteration;
                        budget = cp.budget_remaining;
                        evals_total = cp.evals_used;
                        retries_total = cp.retries;
                        failed_total = cp.failed_configs;
                        rng = StdRng::from_state(cp.rng_state);
                        model = SamplingModel::from_parts(cp.weights, cp.spread);
                        elites = cp.elites;
                        history = cp.history;
                        for (inst, reason) in cp.quarantine {
                            quarantine.insert(inst, reason);
                        }
                        for (cfg, inst, c) in cp.cache {
                            cache.put(&cfg, inst, c);
                        }
                        tel.emit(Event::Resume {
                            next_iteration: first_iter,
                            budget_remaining: budget as usize,
                        });
                    }
                    Err(e) => warnings.push(format!("ignoring checkpoint {}: {e}", path.display())),
                },
                Err(e) if !path.exists() => {
                    let _ = e; // a missing checkpoint is a normal first run
                }
                Err(e) => warnings.push(format!(
                    "ignoring unreadable checkpoint {}: {e}",
                    path.display()
                )),
            }
        }

        g_budget.set(budget);
        let started = std::time::Instant::now();
        let mut aborted = false;

        for iter in first_iter..n_iters {
            if iter >= stop_after {
                break;
            }
            if budget < (st.race.first_test * (st.race.min_survivors + 1)) as u64 {
                break;
            }
            if let Some(limit) = st.max_seconds {
                if started.elapsed().as_secs() >= limit {
                    break;
                }
            }
            if let Some(cancel) = &self.cancel {
                if cancel.load(std::sync::atomic::Ordering::Relaxed) {
                    aborted = true;
                    break;
                }
            }
            let iter_sw = tel.stopwatch();
            let t_iter = prof_on.then(std::time::Instant::now);
            // Budget share for this iteration.
            let iter_budget = budget / (n_iters - iter) as u64;
            // Number of configurations: enough that the race can afford
            // first_test blocks for everyone plus elimination headroom.
            let denom = (st.race.first_test + 2 + iter).max(1) as u64;
            let n_new = (iter_budget / denom.max(1) / (n_instances as u64 / 4).max(1))
                .clamp(st.race.min_survivors as u64 + 2, 64) as usize;

            // Assemble the iteration's configurations: elites first.
            let t_sample = prof_on.then(std::time::Instant::now);
            let mut configs: Vec<Configuration> = elites.iter().map(|(c, _)| c.clone()).collect();
            let want = n_new + elites.len();
            // A concentrated model may keep producing duplicates; cap the
            // attempts so a converged search cannot spin forever.
            let mut attempts = 0usize;
            while configs.len() < want && attempts < want * 50 {
                attempts += 1;
                let mut c = if elites.is_empty() {
                    model.sample(space, &mut rng)
                } else {
                    // Pick a parent, weighted toward better elites.
                    let w = rng.gen_range(0.0..1.0f64);
                    let parent_idx =
                        ((w * w) * elites.len() as f64).floor() as usize % elites.len();
                    model.sample_around(space, &elites[parent_idx].0, &mut rng)
                };
                // Frozen dimensions are pinned before dedup:
                // a dimension the suite cannot observe never costs budget.
                for &(i, v) in &self.frozen {
                    c.set_value(i, v);
                }
                if !configs.contains(&c) {
                    configs.push(c);
                }
            }
            if let Some(t) = t_sample {
                // Count = configurations sampled fresh this iteration.
                let fresh = configs.len().saturating_sub(elites.len()) as u64;
                p_sample.add(fresh, t.elapsed().as_nanos() as u64);
            }
            if configs.len() < 2 {
                break; // fully converged
            }
            // irace's "soft restart": if sampling has collapsed (mostly
            // duplicates), re-widen the model so later iterations can
            // still explore.
            if configs.len() < want / 2 {
                model.spread = (model.spread * 3.0).min(1.0);
            }

            tel.emit(Event::IterationStart {
                iteration: iter,
                configs: configs.len(),
            });
            // Race over a freshly shuffled instance order.
            let mut order: Vec<usize> = (0..n_instances).collect();
            order.shuffle(&mut rng);
            let mut race_budget = iter_budget.min(budget);
            let before = race_budget;
            let result = race(
                space,
                &configs,
                &order,
                cost,
                RaceContext {
                    cache: &cache,
                    quarantine: &quarantine,
                    cancel: self.cancel.as_deref(),
                    threads: st.threads,
                    dispatch: self.dispatch.as_deref().map(|d| d as &dyn EvalDispatch),
                    prof: prof_on.then_some(&race_prof),
                },
                &st.race,
                &mut race_budget,
            );
            if result.aborted {
                // Discard the partial iteration entirely: budget, elites
                // and history keep their pre-iteration values, so a resume
                // from the last checkpoint replays this iteration
                // bit-identically.
                aborted = true;
                break;
            }
            let used = before - race_budget;
            budget = budget.saturating_sub(used);
            evals_total += result.evals_used;
            retries_total += result.retries;
            failed_total += result
                .log
                .iter()
                .filter(|e| matches!(e, RaceLogEntry::Failed { .. }))
                .count() as u64;

            m_iterations.inc();
            m_evals.add(result.evals_used);
            m_retries.add(result.retries);
            g_budget.set(budget);
            for entry in &result.log {
                let (kind, reason) = match entry {
                    RaceLogEntry::Eliminated { .. } => {
                        m_eliminations.inc();
                        ("statistical", String::new())
                    }
                    RaceLogEntry::Failed { reason, .. } => {
                        m_failed.inc();
                        ("failed", reason.clone())
                    }
                };
                tel.emit(Event::Elimination {
                    config: configs[entry.config()].render(space),
                    kind: kind.to_string(),
                    after_blocks: entry.after_blocks(),
                    reason,
                });
            }
            for (inst, reason) in &result.quarantined {
                m_quarantined.inc();
                tel.emit(Event::Quarantine {
                    instance: format!("instance {inst}"),
                    reason: reason.clone(),
                });
            }

            // New elite set. A race in which every configuration failed
            // leaves no survivors; the model then resamples from scratch
            // next iteration.
            elites = result
                .survivors
                .iter()
                .zip(&result.survivor_costs)
                .take(st.n_elites)
                .map(|(&i, &c)| (configs[i].clone(), c))
                .collect();
            let elite_refs: Vec<&Configuration> = elites.iter().map(|(c, _)| c).collect();
            model.update(space, &elite_refs, 0.5);

            let iter_us = iter_sw.elapsed_us();
            h_iter_us.record(iter_us);
            tel.emit(Event::IterationEnd {
                iteration: iter,
                survivors: result.survivors.len(),
                best_cost: elites.first().map(|(_, c)| *c).unwrap_or(f64::NAN),
                evals: result.evals_used as usize,
                blocks: result.blocks_used,
                micros: iter_us,
            });

            history.push(IterationSummary {
                iteration: iter,
                configs_raced: configs.len(),
                blocks_used: result.blocks_used,
                evals_used: result.evals_used,
                best_cost: elites.first().map(|(_, c)| *c).unwrap_or(f64::NAN),
                eliminations: result.log,
            });

            if let Some(path) = &self.checkpoint {
                let t_cp = prof_on.then(std::time::Instant::now);
                let cp = TunerCheckpoint {
                    next_iteration: iter + 1,
                    budget_remaining: budget,
                    evals_used: evals_total,
                    retries: retries_total,
                    failed_configs: failed_total,
                    seed: st.seed,
                    n_instances,
                    space_fingerprint: TunerCheckpoint::fingerprint(space),
                    rng_state: rng.state(),
                    spread: model.spread,
                    weights: model.weights().to_vec(),
                    elites: elites.clone(),
                    quarantine: quarantine.entries(),
                    cache: cache.entries(),
                    history: history.clone(),
                };
                if let Err(e) = cp.save(path) {
                    warnings.push(format!(
                        "failed to write checkpoint {}: {e}",
                        path.display()
                    ));
                } else {
                    tel.emit(Event::Checkpoint {
                        iteration: iter,
                        path: path.display().to_string(),
                    });
                }
                if let Some(t) = t_cp {
                    p_checkpoint.record_ns(t.elapsed().as_nanos() as u64);
                }
            }
            if let Some(t) = t_iter {
                p_iter.record_ns(t.elapsed().as_nanos() as u64);
            }
        }

        if let Some(t) = t_tune {
            p_tune.record_ns(t.elapsed().as_nanos() as u64);
        }
        let (best, best_cost) = elites
            .first()
            .cloned()
            .unwrap_or_else(|| (space.default_configuration(), f64::NAN));
        tel.counter("cache.hits").add(cache.hits());
        tel.counter("cache.misses").add(cache.misses());
        tel.emit(Event::CampaignEnd {
            best_cost,
            evals: evals_total as usize,
            retries: retries_total as usize,
            failed_configs: failed_total as usize,
            aborted,
            micros: campaign_sw.elapsed_us(),
        });
        tel.emit_metrics();
        TuneResult {
            best,
            best_cost,
            elites,
            evals_used: evals_total,
            history,
            quarantined: quarantine.entries(),
            failed_configs: failed_total,
            retries: retries_total,
            aborted,
            cache_hits: cache.hits(),
            cache_misses: cache.misses(),
            warnings,
        }
    }
}

impl Tuner for RacingTuner {
    fn tune(&self, space: &ParamSpace, cost: &dyn CostFn, n_instances: usize) -> TuneResult {
        self.try_tune(space, &Fallible(cost), n_instances)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn space() -> ParamSpace {
        let mut s = ParamSpace::new();
        s.add_integer("x", &[-8, -4, -2, -1, 0, 1, 2, 4, 8]);
        s.add_integer("y", &[-8, -4, -2, -1, 0, 1, 2, 4, 8]);
        s.add_categorical("mode", &["good", "bad", "awful"]);
        s.add_bool("boost");
        s
    }

    struct Bowl;

    impl CostFn for Bowl {
        fn cost(&self, cfg: &Configuration, space: &ParamSpace, instance: usize) -> f64 {
            let x = cfg.integer(space, "x") as f64;
            let y = cfg.integer(space, "y") as f64;
            let mode = match cfg.categorical(space, "mode") {
                "good" => 0.0,
                "bad" => 5.0,
                _ => 20.0,
            };
            let boost = if cfg.flag(space, "boost") { -1.0 } else { 0.0 };
            // Instance-dependent but ranking-preserving noise.
            let noise = ((instance * 7919) % 13) as f64 * 0.05;
            x * x + y * y + mode + boost + noise
        }
    }

    #[test]
    fn finds_the_global_optimum_on_a_separable_problem() {
        let tuner = RacingTuner::new(TunerSettings {
            budget: 4_000,
            seed: 7,
            ..TunerSettings::default()
        });
        let s = space();
        let r = tuner.tune(&s, &Bowl, 12);
        assert_eq!(r.best.integer(&s, "x"), 0, "{}", r.best.render(&s));
        assert_eq!(r.best.integer(&s, "y"), 0);
        assert_eq!(r.best.categorical(&s, "mode"), "good");
        assert!(r.best.flag(&s, "boost"));
        assert!(r.evals_used <= 4_000);
        assert!(!r.history.is_empty());
        assert_eq!(r.failed_configs, 0);
        assert_eq!(r.retries, 0);
        assert!(r.quarantined.is_empty());
        assert!(!r.aborted);
        assert!(r.warnings.is_empty());
    }

    #[test]
    fn respects_the_budget() {
        let tuner = RacingTuner::new(TunerSettings {
            budget: 300,
            seed: 3,
            ..TunerSettings::default()
        });
        let s = space();
        let r = tuner.tune(&s, &Bowl, 12);
        assert!(r.evals_used <= 300, "{} evals", r.evals_used);
    }

    #[test]
    fn deterministic_under_a_seed() {
        let s = space();
        let mk = || {
            RacingTuner::new(TunerSettings {
                budget: 1_000,
                seed: 99,
                ..TunerSettings::default()
            })
            .tune(&s, &Bowl, 12)
        };
        let a = mk();
        let b = mk();
        assert_eq!(a.best, b.best);
        assert_eq!(a.evals_used, b.evals_used);
    }

    #[test]
    fn different_seeds_explore_differently_but_both_converge() {
        let s = space();
        let run = |seed| {
            RacingTuner::new(TunerSettings {
                budget: 4_000,
                seed,
                ..TunerSettings::default()
            })
            .tune(&s, &Bowl, 12)
            .best_cost
        };
        let a = run(1);
        let b = run(2);
        assert!(a < 2.0, "seed 1 converges: {a}");
        assert!(b < 2.0, "seed 2 converges: {b}");
    }

    #[test]
    fn single_instance_problems_are_supported() {
        // With one instance no statistical test can run (first_test = 5),
        // so the race degenerates to best-mean selection — still valid.
        let s = space();
        let r = RacingTuner::new(TunerSettings {
            budget: 500,
            seed: 21,
            ..TunerSettings::default()
        })
        .tune(&s, &Bowl, 1);
        assert!(r.best_cost.is_finite());
        assert!(r.evals_used <= 500);
    }

    #[test]
    fn wall_clock_limit_short_circuits() {
        let s = space();
        let r = RacingTuner::new(TunerSettings {
            budget: 100_000,
            seed: 5,
            max_seconds: Some(0),
            ..TunerSettings::default()
        })
        .tune(&s, &Bowl, 12);
        assert!(r.history.is_empty(), "no iteration may start at 0s");
        assert_eq!(r.evals_used, 0);
    }

    #[test]
    fn max_iterations_caps_the_schedule() {
        let s = space();
        let r = RacingTuner::new(TunerSettings {
            budget: 4_000,
            seed: 7,
            max_iterations: Some(1),
            ..TunerSettings::default()
        })
        .tune(&s, &Bowl, 12);
        assert_eq!(r.history.len(), 1);
        assert!(!r.aborted, "a capped run is complete, not cancelled");
    }

    #[test]
    fn cancellation_flag_aborts_the_run() {
        let s = space();
        let cancel = Arc::new(AtomicBool::new(true));
        let r = RacingTuner::new(TunerSettings {
            budget: 4_000,
            seed: 7,
            ..TunerSettings::default()
        })
        .with_cancel(Arc::clone(&cancel))
        .tune(&s, &Bowl, 12);
        assert!(r.aborted);
        assert_eq!(r.evals_used, 0);
    }

    #[test]
    fn config_side_faults_eliminate_without_poisoning_the_result() {
        struct Spiky;
        impl CostFn for Spiky {
            fn cost(&self, cfg: &Configuration, space: &ParamSpace, instance: usize) -> f64 {
                if cfg.categorical(space, "mode") == "awful" {
                    return f64::NAN; // rejected at the TryCostFn boundary
                }
                Bowl.cost(cfg, space, instance)
            }
        }
        let s = space();
        let r = RacingTuner::new(TunerSettings {
            budget: 3_000,
            seed: 13,
            ..TunerSettings::default()
        })
        .tune(&s, &Spiky, 12);
        assert!(r.best_cost.is_finite());
        assert!(r.failed_configs > 0, "NaN configs were raced and removed");
        assert_ne!(r.best.categorical(&s, "mode"), "awful");
        assert!(r.quarantined.is_empty(), "config faults never quarantine");
    }

    #[test]
    fn frozen_dimensions_never_vary_in_evaluated_configurations() {
        use std::collections::HashSet;
        use std::sync::Mutex;

        struct Recording {
            seen: Mutex<HashSet<String>>,
        }
        impl CostFn for Recording {
            fn cost(&self, cfg: &Configuration, space: &ParamSpace, instance: usize) -> f64 {
                self.seen.lock().unwrap().insert(cfg.render(space));
                Bowl.cost(cfg, space, instance)
            }
        }
        let s = space();
        let mode = s.index_of("mode");
        let boost = s.index_of("boost");
        let cost = Recording {
            seen: Mutex::new(HashSet::new()),
        };
        let r = RacingTuner::new(TunerSettings {
            budget: 2_000,
            seed: 23,
            ..TunerSettings::default()
        })
        .with_frozen(vec![(mode, Value::Cat(0)), (boost, Value::Flag(true))])
        .tune(&s, &cost, 12);
        let simulated = cost.seen.into_inner().unwrap();
        assert!(simulated.len() > 1, "the tuner still explores x and y");
        for c in &simulated {
            assert!(c.contains("mode=good"), "{c}");
            assert!(c.contains("boost=true"), "{c}");
        }
        assert_eq!(r.best.categorical(&s, "mode"), "good");
        assert!(r.best.flag(&s, "boost"));
    }

    #[test]
    fn profiling_builds_the_tuner_phase_tree() {
        let s = space();
        let mk = || TunerSettings {
            budget: 1_000,
            seed: 99,
            ..TunerSettings::default()
        };
        let plain = RacingTuner::new(mk()).tune(&s, &Bowl, 12);

        let profiler = Profiler::enabled();
        let r = RacingTuner::new(mk())
            .with_profiler(profiler.clone())
            .tune(&s, &Bowl, 12);
        assert_eq!(r.best, plain.best, "profiling is observation-only");
        assert_eq!(r.evals_used, plain.evals_used);

        let snap = profiler.snapshot();
        let tune = snap.find(&["tune"]).expect("tune phase recorded");
        assert_eq!(tune.count, 1);
        let iter = snap.find(&["tune", "iteration"]).expect("iteration phase");
        assert_eq!(iter.count as usize, r.history.len());
        let sample = snap
            .find(&["tune", "iteration", "sample"])
            .expect("sample phase");
        assert!(sample.count > 0, "configurations were sampled");
        let sim = snap
            .find(&["tune", "iteration", "simulate"])
            .expect("simulate phase");
        assert_eq!(sim.count, r.evals_used, "count tracks fresh evaluations");
        assert!(snap.find(&["tune", "iteration", "rank"]).is_some());
        assert!(snap.find(&["tune", "iteration", "eliminate"]).is_some());
        assert!(snap.find(&["tune", "iteration", "checkpoint"]).is_some());
        // The per-iteration phases nest under the iterations they ran in.
        assert!(iter.total_ns >= sample.total_ns + sim.total_ns);
    }

    #[test]
    fn history_shows_progress() {
        let s = space();
        let r = RacingTuner::new(TunerSettings {
            budget: 3_000,
            seed: 11,
            ..TunerSettings::default()
        })
        .tune(&s, &Bowl, 12);
        let first = r.history.first().unwrap().best_cost;
        let last = r.history.last().unwrap().best_cost;
        assert!(last <= first, "cost must not regress: {first} -> {last}");
    }
}
