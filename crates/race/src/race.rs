//! The racing procedure (step 2 of Figure 2), fault-tolerant end to end.

use crate::cache::CostCache;
use crate::error::{EvalError, Quarantine, RetryPolicy};
use crate::param::{Configuration, ParamSpace};
use crate::tuner::TryCostFn;
use racesim_stats::{friedman_test, mean, paired_t_test, wilcoxon_signed_rank};
use racesim_telemetry::PhaseTimer;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Instant;

/// Which statistical machinery eliminates losing configurations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EliminationTest {
    /// Friedman rank test as a gate, then pairwise Wilcoxon signed-rank
    /// against the current leader (irace's default F-race).
    Friedman,
    /// Pairwise paired t-tests against the current leader (t-race).
    PairedT,
}

/// Race parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RaceSettings {
    /// Significance level for elimination.
    pub alpha: f64,
    /// Number of instances evaluated before the first statistical test
    /// (irace's `firstTest`).
    pub first_test: usize,
    /// Never eliminate below this many survivors (statistical
    /// eliminations only; configurations whose evaluations *fail* are
    /// removed regardless — a race can end with zero survivors if every
    /// candidate is broken).
    pub min_survivors: usize,
    /// The elimination machinery.
    pub test: EliminationTest,
    /// Retry/backoff policy for transient board-side faults.
    pub retry: RetryPolicy,
}

impl Default for RaceSettings {
    fn default() -> RaceSettings {
        RaceSettings {
            alpha: 0.05,
            first_test: 5,
            min_survivors: 2,
            test: EliminationTest::Friedman,
            retry: RetryPolicy::default(),
        }
    }
}

/// One race event, for Figure-2-style visualisations and post-mortems.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RaceLogEntry {
    /// A configuration was eliminated by the statistical test.
    Eliminated {
        /// Index of the eliminated configuration (into the race's config
        /// list).
        config: usize,
        /// How many instances it had been evaluated on when eliminated.
        after_blocks: usize,
    },
    /// A configuration was removed because its evaluation failed
    /// (simulator panic, watchdog timeout, non-finite cost).
    Failed {
        /// Index of the failed configuration.
        config: usize,
        /// How many complete instances it had seen when it failed.
        after_blocks: usize,
        /// The classified failure reason.
        reason: String,
    },
}

impl RaceLogEntry {
    /// The configuration index this entry concerns.
    pub fn config(&self) -> usize {
        match self {
            RaceLogEntry::Eliminated { config, .. } | RaceLogEntry::Failed { config, .. } => {
                *config
            }
        }
    }

    /// How many blocks the configuration had seen.
    pub fn after_blocks(&self) -> usize {
        match self {
            RaceLogEntry::Eliminated { after_blocks, .. }
            | RaceLogEntry::Failed { after_blocks, .. } => *after_blocks,
        }
    }
}

/// Outcome of one race.
#[derive(Debug, Clone)]
pub struct RaceResult {
    /// Surviving configuration indices, best (lowest mean cost) first.
    pub survivors: Vec<usize>,
    /// Mean cost of each surviving configuration over the blocks it saw.
    pub survivor_costs: Vec<f64>,
    /// Instances (blocks) actually raced.
    pub blocks_used: usize,
    /// Fresh cost evaluations consumed.
    pub evals_used: u64,
    /// Elimination/failure log.
    pub log: Vec<RaceLogEntry>,
    /// Transient-fault retries performed.
    pub retries: u64,
    /// Instances quarantined *during this race*, with reasons.
    pub quarantined: Vec<(usize, String)>,
    /// True when the race was cancelled before running to completion.
    pub aborted: bool,
}

/// Pre-resolved phase timers the racing loop records into when the
/// self-profiler is attached. The handles are lock-free
/// [`PhaseTimer`]s, so an enabled race pays two clock reads per block
/// plus two per statistical pass; the disabled case
/// ([`RaceContext::prof`]` == None`) costs one branch per block.
#[derive(Debug, Clone)]
pub struct RaceProf {
    /// Wall time evaluating configurations (the simulator); the count is
    /// the number of fresh evaluations.
    pub simulate: PhaseTimer,
    /// Wall time in the statistical machinery: matrix assembly, the
    /// Friedman/t gate, and the pairwise tests against the leader.
    pub rank: PhaseTimer,
    /// Wall time applying eliminations (survivor-floor trimming and the
    /// kill log).
    pub eliminate: PhaseTimer,
}

impl RaceProf {
    /// Creates the simulate/rank/eliminate timers as children of
    /// `parent` (disabled parents yield disabled, zero-cost children).
    pub fn new(parent: &PhaseTimer) -> RaceProf {
        RaceProf {
            simulate: parent.child("simulate"),
            rank: parent.child("rank"),
            eliminate: parent.child("eliminate"),
        }
    }
}

/// A pluggable backend that evaluates one block's worth of
/// `(configuration, instance)` tasks somewhere other than the calling
/// thread pool — the seam the distributed coordinator plugs into.
///
/// The contract mirrors the inline path exactly, so swapping backends
/// cannot change a campaign's outcome:
///
/// * the returned vector is **aligned with `tasks`** (slot `k` holds the
///   outcome of `tasks[k]`), preserving the race's deterministic
///   slot-indexed reduction regardless of which backend worker finished
///   first;
/// * every outcome is fully classified: transient faults were retried
///   per `retry` and escalated to [`EvalError::Instance`] when
///   exhausted, panics and non-finite costs were converted to
///   [`EvalError::Config`] — exactly like [`eval_with_retry`];
/// * the `u64` in each slot counts transient retries spent on that
///   task, so budget and retry accounting stay backend-invariant.
///
/// Backend-internal failures (a dead worker process, a torn frame) must
/// be absorbed by the implementation — re-dispatched or evaluated
/// locally — never surfaced as task outcomes.
pub trait EvalDispatch: Sync + std::fmt::Debug {
    /// Evaluates every task in `tasks` on `instance` and returns their
    /// classified outcomes in task order.
    fn eval_batch(
        &self,
        space: &ParamSpace,
        tasks: &[&Configuration],
        instance: usize,
        retry: &RetryPolicy,
    ) -> Vec<(Result<f64, EvalError>, u64)>;
}

/// Shared infrastructure a race runs against: the cost memo, the
/// cross-race instance quarantine, an optional cancellation flag
/// (checked between blocks; a cancelled race reports `aborted`), and the
/// evaluation thread count.
#[derive(Debug, Clone, Copy)]
pub struct RaceContext<'a> {
    /// Memoised `(configuration, instance) → cost` store.
    pub cache: &'a CostCache,
    /// Instances known to be unmeasurable; the race skips them and adds
    /// newly failing ones.
    pub quarantine: &'a Quarantine,
    /// Cooperative cancellation, for checkpoint-and-exit shutdowns.
    pub cancel: Option<&'a AtomicBool>,
    /// Worker threads for block evaluation (`<= 1` runs inline).
    pub threads: usize,
    /// Evaluation backend for block dispatch (`None` evaluates
    /// in-process on `threads` threads).
    pub dispatch: Option<&'a dyn EvalDispatch>,
    /// Phase timers for the self-profiler, or `None` when profiling is
    /// off (the default).
    pub prof: Option<&'a RaceProf>,
}

/// Evaluates one `(configuration, instance)` task with retry/backoff,
/// catching panics and rejecting non-finite costs at the boundary.
/// Returns the classified outcome plus the number of retries taken.
///
/// This is the single classification point every evaluation path shares:
/// the inline race loop, the in-process thread pool, and the distributed
/// coordinator's local fallback all call it, so fault taxonomy and retry
/// accounting cannot drift between backends.
pub fn eval_with_retry(
    cost: &dyn TryCostFn,
    cfg: &Configuration,
    space: &ParamSpace,
    instance: usize,
    retry: &RetryPolicy,
) -> (Result<f64, EvalError>, u64) {
    let mut retries = 0u64;
    loop {
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            cost.try_cost(cfg, space, instance)
        }));
        let outcome = match caught {
            Ok(Ok(c)) if !c.is_finite() => Err(EvalError::Config(format!("non-finite cost {c}"))),
            Ok(other) => other,
            Err(payload) => {
                let reason = payload
                    .downcast_ref::<&str>()
                    .map(|s| (*s).to_string())
                    .or_else(|| payload.downcast_ref::<String>().cloned())
                    .unwrap_or_else(|| "opaque panic payload".to_string());
                Err(EvalError::Config(format!("evaluation panicked: {reason}")))
            }
        };
        match outcome {
            Err(EvalError::Transient(reason)) => {
                if retries + 1 < retry.max_attempts as u64 {
                    retries += 1;
                    let pause = retry.backoff(retries as u32);
                    if !pause.is_zero() {
                        std::thread::sleep(pause);
                    }
                    continue;
                }
                // Retries exhausted: the board, not the configuration, is
                // at fault — escalate to an instance fault.
                return (
                    Err(EvalError::Instance(format!(
                        "transient fault persisted through {} attempts: {reason}",
                        retry.max_attempts
                    ))),
                    retries,
                );
            }
            other => return (other, retries),
        }
    }
}

/// What one block (instance) of evaluations produced.
struct BlockOutcome {
    /// Fresh evaluation tasks attempted (budget units).
    fresh: u64,
    /// Transient retries across all tasks.
    retries: u64,
    /// Configurations whose evaluation failed config-side, with reasons.
    failed: Vec<(usize, String)>,
    /// First board-side fault seen, if any: quarantine the instance.
    instance_fault: Option<String>,
}

/// Evaluates `configs[i]` on `instance` for every alive index, in
/// parallel. Every task runs to completion (deterministic budget
/// accounting regardless of thread interleaving); classification happens
/// afterwards.
fn evaluate_block(
    space: &ParamSpace,
    configs: &[Configuration],
    alive: &[bool],
    instance: usize,
    cost: &dyn TryCostFn,
    ctx: RaceContext<'_>,
    settings: &RaceSettings,
) -> BlockOutcome {
    let mut seen = std::collections::HashSet::new();
    let todo: Vec<usize> = (0..configs.len())
        .filter(|&i| {
            alive[i] && ctx.cache.get(&configs[i], instance).is_none() && seen.insert(&configs[i])
        })
        .collect();
    let fresh = todo.len() as u64;
    // Indexed by position in `todo`, so parallel workers write disjoint
    // slots and the merged outcome is order-independent.
    let mut results: Vec<Option<(Result<f64, EvalError>, u64)>> = vec![None; todo.len()];
    if let Some(dispatch) = ctx.dispatch {
        let tasks: Vec<&Configuration> = todo.iter().map(|&i| &configs[i]).collect();
        let outcomes = dispatch.eval_batch(space, &tasks, instance, &settings.retry);
        assert_eq!(
            outcomes.len(),
            tasks.len(),
            "dispatch backend must return one outcome per task"
        );
        for (slot, outcome) in outcomes.into_iter().enumerate() {
            results[slot] = Some(outcome);
        }
    } else if ctx.threads <= 1 || todo.len() <= 1 {
        for (slot, &i) in todo.iter().enumerate() {
            results[slot] = Some(eval_with_retry(
                cost,
                &configs[i],
                space,
                instance,
                &settings.retry,
            ));
        }
    } else {
        let next = std::sync::atomic::AtomicUsize::new(0);
        let slots = parking_lot::Mutex::new(&mut results);
        // Workers cannot panic: evaluation panics are caught in
        // `eval_one` and classified as config faults.
        std::thread::scope(|scope| {
            for _ in 0..ctx.threads.min(todo.len()) {
                scope.spawn(|| loop {
                    let k = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                    if k >= todo.len() {
                        break;
                    }
                    let i = todo[k];
                    let r = eval_with_retry(cost, &configs[i], space, instance, &settings.retry);
                    slots.lock()[k] = Some(r);
                });
            }
        });
    }

    let mut retries = 0u64;
    let mut failed = Vec::new();
    let mut instance_fault = None;
    for (slot, &i) in todo.iter().enumerate() {
        let (outcome, r) = results[slot].take().expect("every task was evaluated");
        retries += r;
        match outcome {
            Ok(c) => ctx.cache.put(&configs[i], instance, c),
            Err(e) if e.is_board_side() => {
                if instance_fault.is_none() {
                    instance_fault = Some(e.reason().to_string());
                }
            }
            Err(e) => failed.push((i, e.reason().to_string())),
        }
    }
    BlockOutcome {
        fresh,
        retries,
        failed,
        instance_fault,
    }
}

/// Races `configs` across `instance_order`, eliminating statistically
/// inferior configurations as evidence accumulates and degrading
/// gracefully under evaluation faults:
///
/// * transient board faults are retried per [`RaceSettings::retry`];
/// * persistently unmeasurable instances are quarantined (skipped by this
///   and every later race sharing the [`Quarantine`]), and the block is
///   discarded so the cost matrix stays rectangular;
/// * failing configurations (panic, timeout, non-finite cost) are removed
///   with a [`RaceLogEntry::Failed`] reason instead of poisoning the rank
///   statistics.
///
/// `budget` is decremented by every fresh evaluation *attempt*; the race
/// stops when the instances or the budget run out, or when only
/// `min_survivors` remain.
///
/// # Panics
///
/// Panics if `configs` or `instance_order` is empty — both indicate a
/// caller bug, not a runtime condition.
pub fn race(
    space: &ParamSpace,
    configs: &[Configuration],
    instance_order: &[usize],
    cost: &dyn TryCostFn,
    ctx: RaceContext<'_>,
    settings: &RaceSettings,
    budget: &mut u64,
) -> RaceResult {
    assert!(!configs.is_empty(), "cannot race zero configurations");
    assert!(!instance_order.is_empty(), "cannot race on zero instances");

    let k = configs.len();
    let mut alive = vec![true; k];
    let mut alive_count = k;
    // Per-config cost history (only while alive; index-aligned rows are
    // rebuilt from scratch at elimination time).
    let mut costs: Vec<Vec<f64>> = vec![Vec::new(); k];
    let mut log = Vec::new();
    let mut evals_used = 0u64;
    let mut retries = 0u64;
    let mut blocks_used = 0usize;
    let mut quarantined = Vec::new();
    let mut aborted = false;

    for &inst in instance_order.iter() {
        if ctx.quarantine.contains(inst) {
            continue;
        }
        if let Some(cancel) = ctx.cancel {
            if cancel.load(Ordering::Relaxed) {
                aborted = true;
                break;
            }
        }
        if *budget < alive_count as u64 || alive_count == 0 {
            break;
        }
        let t_sim = ctx.prof.map(|_| Instant::now());
        let block = evaluate_block(space, configs, &alive, inst, cost, ctx, settings);
        if let (Some(p), Some(t)) = (ctx.prof, t_sim) {
            p.simulate.add(block.fresh, t.elapsed().as_nanos() as u64);
        }
        *budget = budget.saturating_sub(block.fresh);
        evals_used += block.fresh;
        retries += block.retries;

        if let Some(reason) = block.instance_fault {
            // Board-side fault: the instance, not any configuration, is
            // to blame. Quarantine it and discard the whole block so the
            // per-config cost rows stay aligned.
            ctx.quarantine.insert(inst, reason.clone());
            quarantined.push((inst, reason));
            continue;
        }
        for (i, reason) in block.failed {
            alive[i] = false;
            alive_count -= 1;
            log.push(RaceLogEntry::Failed {
                config: i,
                after_blocks: blocks_used,
                reason,
            });
        }
        blocks_used += 1;
        for (i, row) in costs.iter_mut().enumerate() {
            if alive[i] {
                // `peek`, not `get`: this re-read was already accounted
                // for by the pre-evaluation lookup above.
                row.push(
                    ctx.cache
                        .peek(&configs[i], inst)
                        .expect("alive configs evaluated or cached above"),
                );
            }
        }
        if alive_count == 0 {
            break;
        }

        if blocks_used < settings.first_test || alive_count <= settings.min_survivors {
            continue;
        }

        let t_rank = ctx.prof.map(|_| Instant::now());
        // Build the blocks × alive-configs matrix. Rows of configurations
        // that failed mid-race are shorter than `blocks_used`; only alive
        // configurations (full rows) enter the statistics.
        let alive_idx: Vec<usize> = (0..k).filter(|&i| alive[i]).collect();
        let matrix: Vec<Vec<f64>> = (0..blocks_used)
            .map(|b| alive_idx.iter().map(|&i| costs[i][b]).collect())
            .collect();

        // Gate: does any configuration differ at all?
        let gate_passed = match settings.test {
            EliminationTest::Friedman => friedman_test(&matrix)
                .map(|o| o.p_value < settings.alpha)
                .unwrap_or(false),
            EliminationTest::PairedT => true,
        };
        if !gate_passed {
            if let (Some(p), Some(t)) = (ctx.prof, t_rank) {
                p.rank.add(1, t.elapsed().as_nanos() as u64);
            }
            continue;
        }

        // Pairwise comparison of every alive config against the leader.
        let best_local = (0..alive_idx.len())
            .min_by(|&a, &b| {
                mean(&costs[alive_idx[a]])
                    .partial_cmp(&mean(&costs[alive_idx[b]]))
                    .unwrap_or(std::cmp::Ordering::Equal)
            })
            .expect("at least one alive config");
        let best = alive_idx[best_local];

        let mut to_kill: Vec<(usize, f64)> = Vec::new();
        for &j in &alive_idx {
            if j == best {
                continue;
            }
            let worse = mean(&costs[j]) > mean(&costs[best]);
            let p = match settings.test {
                EliminationTest::Friedman => wilcoxon_signed_rank(&costs[j], &costs[best])
                    .map(|(_, p)| p)
                    .unwrap_or(1.0),
                EliminationTest::PairedT => paired_t_test(&costs[j], &costs[best])
                    .map(|(_, p)| p)
                    .unwrap_or(1.0),
            };
            if worse && p < settings.alpha {
                to_kill.push((j, mean(&costs[j])));
            }
        }
        if let (Some(p), Some(t)) = (ctx.prof, t_rank) {
            p.rank.add(1, t.elapsed().as_nanos() as u64);
        }
        let t_elim = ctx.prof.map(|_| Instant::now());
        // Respect the survivor floor: spare the best of the condemned.
        let max_kills = alive_count.saturating_sub(settings.min_survivors);
        if to_kill.len() > max_kills {
            to_kill.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal));
            to_kill.truncate(max_kills);
        }
        for (j, _) in to_kill {
            alive[j] = false;
            alive_count -= 1;
            log.push(RaceLogEntry::Eliminated {
                config: j,
                after_blocks: blocks_used,
            });
        }
        if let (Some(p), Some(t)) = (ctx.prof, t_elim) {
            p.eliminate.add(1, t.elapsed().as_nanos() as u64);
        }
        if alive_count <= settings.min_survivors {
            // Keep racing only to refine the ranking if instances remain;
            // irace stops the race here, and so do we.
            break;
        }
    }

    // A survivor with no completed blocks (every instance quarantined
    // before any evidence accumulated) has an *unknown* cost, not a
    // perfect one: report NaN rather than `mean(&[]) == 0`.
    let score = |i: usize| {
        if costs[i].is_empty() {
            f64::NAN
        } else {
            mean(&costs[i])
        }
    };
    let mut survivors: Vec<usize> = (0..k).filter(|&i| alive[i]).collect();
    survivors.sort_by(|&a, &b| {
        score(a)
            .partial_cmp(&score(b))
            .unwrap_or(std::cmp::Ordering::Equal)
    });
    let survivor_costs = survivors.iter().map(|&i| score(i)).collect();
    RaceResult {
        survivors,
        survivor_costs,
        blocks_used,
        evals_used,
        log,
        retries,
        quarantined,
        aborted,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tuner::CostFn;

    struct SyntheticCost;

    impl CostFn for SyntheticCost {
        fn cost(&self, cfg: &Configuration, space: &ParamSpace, instance: usize) -> f64 {
            // True optimum at x = 0; instances add config-independent noise
            // plus a small interaction so rankings are mostly stable.
            let x = cfg.integer(space, "x") as f64;
            x * x + (instance as f64 % 7.0) + 0.01 * x * (instance as f64 % 3.0)
        }
    }

    fn space() -> ParamSpace {
        let mut s = ParamSpace::new();
        s.add_integer("x", &[0, 1, 2, 4, 8, 16]);
        s
    }

    fn configs(space: &ParamSpace) -> Vec<Configuration> {
        [0i64, 1, 2, 4, 8, 16]
            .iter()
            .map(|&v| {
                let mut c = space.default_configuration();
                c.set_integer(space, "x", v);
                c
            })
            .collect()
    }

    #[allow(clippy::too_many_arguments)]
    fn run(
        s: &ParamSpace,
        cfgs: &[Configuration],
        order: &[usize],
        cost: &dyn TryCostFn,
        cache: &CostCache,
        quarantine: &Quarantine,
        settings: &RaceSettings,
        budget: &mut u64,
        threads: usize,
    ) -> RaceResult {
        race(
            s,
            cfgs,
            order,
            cost,
            RaceContext {
                cache,
                quarantine,
                cancel: None,
                threads,
                dispatch: None,
                prof: None,
            },
            settings,
            budget,
        )
    }

    #[test]
    fn race_eliminates_bad_configs_and_keeps_the_best() {
        let s = space();
        let cfgs = configs(&s);
        let order: Vec<usize> = (0..20).collect();
        let cache = CostCache::new();
        let q = Quarantine::new();
        let mut budget = 10_000u64;
        let r = run(
            &s,
            &cfgs,
            &order,
            &SyntheticCost,
            &cache,
            &q,
            &RaceSettings::default(),
            &mut budget,
            1,
        );
        assert_eq!(r.survivors[0], 0, "x=0 wins");
        assert!(!r.log.is_empty(), "bad configs were eliminated");
        assert!(r.evals_used < 6 * 20, "elimination saves evaluations");
        assert!(budget < 10_000);
        assert_eq!(r.retries, 0);
        assert!(r.quarantined.is_empty());
        assert!(!r.aborted);
    }

    #[test]
    fn elimination_respects_the_survivor_floor() {
        let s = space();
        let cfgs = configs(&s);
        let order: Vec<usize> = (0..20).collect();
        let cache = CostCache::new();
        let q = Quarantine::new();
        let mut budget = 10_000u64;
        let settings = RaceSettings {
            min_survivors: 4,
            ..RaceSettings::default()
        };
        let r = run(
            &s,
            &cfgs,
            &order,
            &SyntheticCost,
            &cache,
            &q,
            &settings,
            &mut budget,
            1,
        );
        assert!(r.survivors.len() >= 4);
    }

    #[test]
    fn tight_budget_stops_the_race_early() {
        let s = space();
        let cfgs = configs(&s);
        let order: Vec<usize> = (0..20).collect();
        let cache = CostCache::new();
        let q = Quarantine::new();
        let mut budget = 13u64; // two full blocks of 6, then starve
        let r = run(
            &s,
            &cfgs,
            &order,
            &SyntheticCost,
            &cache,
            &q,
            &RaceSettings::default(),
            &mut budget,
            1,
        );
        assert_eq!(r.blocks_used, 2);
        assert_eq!(r.evals_used, 12);
    }

    #[test]
    fn identical_configs_are_never_eliminated() {
        let s = space();
        let c = s.default_configuration();
        let cfgs = vec![c.clone(), c.clone(), c];
        let order: Vec<usize> = (0..10).collect();
        let cache = CostCache::new();
        let q = Quarantine::new();
        let mut budget = 1000u64;
        let r = run(
            &s,
            &cfgs,
            &order,
            &SyntheticCost,
            &cache,
            &q,
            &RaceSettings::default(),
            &mut budget,
            1,
        );
        assert_eq!(r.survivors.len(), 3, "ties must survive");
        // Identical configs share cache entries: only one eval per block.
        assert_eq!(r.evals_used, 10);
    }

    #[test]
    fn paired_t_variant_also_finds_the_optimum() {
        let s = space();
        let cfgs = configs(&s);
        let order: Vec<usize> = (0..20).collect();
        let cache = CostCache::new();
        let q = Quarantine::new();
        let mut budget = 10_000u64;
        let settings = RaceSettings {
            test: EliminationTest::PairedT,
            ..RaceSettings::default()
        };
        let r = run(
            &s,
            &cfgs,
            &order,
            &SyntheticCost,
            &cache,
            &q,
            &settings,
            &mut budget,
            1,
        );
        assert_eq!(r.survivors[0], 0);
    }

    #[test]
    fn parallel_racing_matches_serial() {
        let s = space();
        let cfgs = configs(&s);
        let order: Vec<usize> = (0..20).collect();
        let mut b1 = 10_000u64;
        let mut b2 = 10_000u64;
        let r1 = run(
            &s,
            &cfgs,
            &order,
            &SyntheticCost,
            &CostCache::new(),
            &Quarantine::new(),
            &RaceSettings::default(),
            &mut b1,
            1,
        );
        let r2 = run(
            &s,
            &cfgs,
            &order,
            &SyntheticCost,
            &CostCache::new(),
            &Quarantine::new(),
            &RaceSettings::default(),
            &mut b2,
            4,
        );
        assert_eq!(r1.survivors, r2.survivors);
        assert_eq!(r1.evals_used, r2.evals_used);
    }

    #[test]
    fn dispatch_backend_matches_the_inline_path() {
        #[derive(Debug)]
        struct LocalDispatch;
        impl EvalDispatch for LocalDispatch {
            fn eval_batch(
                &self,
                space: &ParamSpace,
                tasks: &[&Configuration],
                instance: usize,
                retry: &RetryPolicy,
            ) -> Vec<(Result<f64, EvalError>, u64)> {
                tasks
                    .iter()
                    .map(|cfg| eval_with_retry(&SyntheticCost, cfg, space, instance, retry))
                    .collect()
            }
        }
        let s = space();
        let cfgs = configs(&s);
        let order: Vec<usize> = (0..20).collect();
        let mut b1 = 10_000u64;
        let inline = run(
            &s,
            &cfgs,
            &order,
            &SyntheticCost,
            &CostCache::new(),
            &Quarantine::new(),
            &RaceSettings::default(),
            &mut b1,
            1,
        );
        let cache = CostCache::new();
        let q = Quarantine::new();
        let mut b2 = 10_000u64;
        let dispatched = race(
            &s,
            &cfgs,
            &order,
            &SyntheticCost,
            RaceContext {
                cache: &cache,
                quarantine: &q,
                cancel: None,
                threads: 1,
                dispatch: Some(&LocalDispatch),
                prof: None,
            },
            &RaceSettings::default(),
            &mut b2,
        );
        assert_eq!(inline.survivors, dispatched.survivors);
        assert_eq!(inline.evals_used, dispatched.evals_used);
        assert_eq!(b1, b2);
        for (a, b) in inline.survivor_costs.iter().zip(&dispatched.survivor_costs) {
            assert_eq!(a.to_bits(), b.to_bits(), "costs must be bit-identical");
        }
    }

    #[test]
    fn quarantined_instances_are_skipped_up_front() {
        let s = space();
        let cfgs = configs(&s);
        let order: Vec<usize> = (0..10).collect();
        let cache = CostCache::new();
        let q = Quarantine::new();
        q.insert(0, "known dead");
        q.insert(5, "known dead");
        let mut budget = 10_000u64;
        let r = run(
            &s,
            &cfgs,
            &order,
            &SyntheticCost,
            &cache,
            &q,
            &RaceSettings::default(),
            &mut budget,
            1,
        );
        assert!(r.blocks_used <= 8, "two of ten instances are quarantined");
        for inst in [0usize, 5] {
            for c in &cfgs {
                assert_eq!(cache.get(c, inst), None, "no budget spent on {inst}");
            }
        }
    }

    #[test]
    fn profiling_records_race_phases_without_changing_the_outcome() {
        use racesim_telemetry::Profiler;
        let s = space();
        let cfgs = configs(&s);
        let order: Vec<usize> = (0..20).collect();
        let mut plain_budget = 10_000u64;
        let plain = run(
            &s,
            &cfgs,
            &order,
            &SyntheticCost,
            &CostCache::new(),
            &Quarantine::new(),
            &RaceSettings::default(),
            &mut plain_budget,
            1,
        );

        let profiler = Profiler::enabled();
        let prof = RaceProf::new(&profiler.timer("race"));
        let cache = CostCache::new();
        let q = Quarantine::new();
        let mut budget = 10_000u64;
        let r = race(
            &s,
            &cfgs,
            &order,
            &SyntheticCost,
            RaceContext {
                cache: &cache,
                quarantine: &q,
                cancel: None,
                threads: 1,
                dispatch: None,
                prof: Some(&prof),
            },
            &RaceSettings::default(),
            &mut budget,
        );
        assert_eq!(
            r.survivors, plain.survivors,
            "profiling is observation-only"
        );
        assert_eq!(r.evals_used, plain.evals_used);

        let snap = profiler.snapshot();
        let sim = snap
            .find(&["race", "simulate"])
            .expect("simulate phase recorded");
        assert_eq!(sim.count, r.evals_used, "count tracks fresh evaluations");
        let rank = snap.find(&["race", "rank"]).expect("rank phase recorded");
        assert!(rank.count > 0, "the statistical test ran at least once");
        let elim = snap
            .find(&["race", "eliminate"])
            .expect("eliminate phase recorded");
        assert!(elim.count > 0, "this race eliminates configurations");
    }

    #[test]
    fn cancellation_aborts_between_blocks() {
        let s = space();
        let cfgs = configs(&s);
        let order: Vec<usize> = (0..20).collect();
        let cache = CostCache::new();
        let q = Quarantine::new();
        let cancel = AtomicBool::new(true);
        let mut budget = 10_000u64;
        let r = race(
            &s,
            &cfgs,
            &order,
            &SyntheticCost,
            RaceContext {
                cache: &cache,
                quarantine: &q,
                cancel: Some(&cancel),
                threads: 1,
                dispatch: None,
                prof: None,
            },
            &RaceSettings::default(),
            &mut budget,
        );
        assert!(r.aborted);
        assert_eq!(r.blocks_used, 0);
        assert_eq!(budget, 10_000);
    }
}
