//! The traced run: the campaign `racesim tune` runs, driven in-process
//! through the public library API, with each layer timed from outside —
//! wrapper types around the board, the cost function and the dispatch
//! backend, and direct calls into the set-up, simulator and decoder entry
//! points. Nothing inside the program is instrumented: no profiler, no
//! telemetry journal.

use crate::campaign::{Campaign, Runner};
use crate::report::{RunReport, PER_LAYER};
use crate::stats::{median, percentile, union_length};
use crate::workload::{campaign_seed, Workload, THREADS};
use racesim_analyzer::coverage::CoverageMatrix;
use racesim_core::params::apply;
use racesim_core::{
    CampaignSpec, CostMetric, LazySuiteCost, Revision, Validator, ValidatorSettings,
};
use racesim_dist::{InitSpec, PoolOptions, ProcessLauncher, WorkerPool};
use racesim_hw::{HardwarePlatform, MeasureError, PerfCounters, ReferenceBoard};
use racesim_isa::EncodedInst;
use racesim_kernels::Workload as Kernel;
use racesim_race::{
    eval_with_retry, Configuration, EvalDispatch, EvalError, ParamSpace, RacingTuner, RetryPolicy,
    TryCostFn, TuneResult, Value,
};
use racesim_sim::{config_text, SimOptions, Simulator};
use racesim_telemetry::Telemetry;
use racesim_trace::{TraceBuffer, TraceRecord};
use std::collections::{BTreeMap, HashSet};
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Untraced CLI runs of the same campaign, for the overhead baseline.
const UNTRACED_REPS: usize = 3;

/// Seconds since `t`.
fn since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// A board that counts and times every measurement it forwards.
#[derive(Debug)]
struct TimedBoard {
    inner: ReferenceBoard,
    calls: AtomicU64,
    nanos: AtomicU64,
    failed: AtomicU64,
}

impl TimedBoard {
    fn new(inner: ReferenceBoard) -> TimedBoard {
        TimedBoard {
            inner,
            calls: AtomicU64::new(0),
            nanos: AtomicU64::new(0),
            failed: AtomicU64::new(0),
        }
    }

    fn timed<T>(&self, f: impl FnOnce() -> Result<T, MeasureError>) -> Result<T, MeasureError> {
        let t = Instant::now();
        let r = f();
        self.nanos
            .fetch_add(t.elapsed().as_nanos() as u64, Ordering::Relaxed);
        self.calls.fetch_add(1, Ordering::Relaxed);
        if r.is_err() {
            self.failed.fetch_add(1, Ordering::Relaxed);
        }
        r
    }
}

impl HardwarePlatform for TimedBoard {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn measure(&self, workload: &Kernel) -> Result<PerfCounters, MeasureError> {
        self.timed(|| self.inner.measure(workload))
    }

    fn measure_trace(
        &self,
        name: &str,
        trace: &TraceBuffer,
        uninit_data: bool,
    ) -> Result<PerfCounters, MeasureError> {
        self.timed(|| self.inner.measure_trace(name, trace, uninit_data))
    }
}

/// One evaluation as seen from outside the cost function.
#[derive(Debug, Clone, Copy)]
struct EvalSpan {
    /// Start and end, in seconds since the campaign started.
    start: f64,
    end: f64,
    instance: usize,
    ok: bool,
}

/// A cost function that records a span per evaluation it forwards.
struct TimedCost<'a> {
    inner: &'a dyn TryCostFn,
    epoch: Instant,
    spans: Mutex<Vec<EvalSpan>>,
}

impl TryCostFn for TimedCost<'_> {
    fn try_cost(
        &self,
        cfg: &Configuration,
        space: &ParamSpace,
        instance: usize,
    ) -> Result<f64, EvalError> {
        let start = since(self.epoch);
        let r = self.inner.try_cost(cfg, space, instance);
        let span = EvalSpan {
            start,
            end: since(self.epoch),
            instance,
            ok: r.is_ok(),
        };
        self.spans
            .lock()
            .expect("span log is never poisoned: pushes cannot panic")
            .push(span);
        r
    }
}

/// A dispatch backend that times every batch it forwards.
#[derive(Debug)]
struct TimedDispatch {
    inner: WorkerPool,
    /// `(wall seconds, tasks)` per batch, in dispatch order.
    batches: Mutex<Vec<(f64, usize)>>,
}

impl EvalDispatch for TimedDispatch {
    fn eval_batch(
        &self,
        space: &ParamSpace,
        tasks: &[&Configuration],
        instance: usize,
        retry: &RetryPolicy,
    ) -> Vec<(Result<f64, EvalError>, u64)> {
        let t = Instant::now();
        let out = self.inner.eval_batch(space, tasks, instance, retry);
        self.batches
            .lock()
            .expect("batch log is never poisoned: pushes cannot panic")
            .push((since(t), tasks.len()));
        out
    }
}

/// Runs `w`'s traced campaign at the first tuner seed `seed` derives and
/// reports every per-layer metric.
pub fn run(runner: &Runner, w: &Workload, seed: u64) -> RunReport {
    let mut rep = RunReport::default();
    let tseed = campaign_seed(seed, 0);
    let untraced: Vec<Campaign> = (0..UNTRACED_REPS)
        .filter_map(|_| {
            rep.campaign(
                &format!("untraced campaign seed {tseed}"),
                w.budget,
                runner.run(w, tseed, w.workers),
            )
        })
        .collect();
    if let Err(e) = layers(runner, w, tseed, &untraced, &mut rep) {
        // Like a CLI campaign that fails a check, charged its whole budget.
        rep.attempted += w.budget;
        rep.reject(&format!("traced campaign seed {tseed}"), w.budget, &e);
    }
    rep.require(PER_LAYER.into_iter());
    rep
}

/// Evaluations a finished campaign attempted and failed.
fn evals_of(result: &TuneResult) -> (u64, u64) {
    let failed = result.failed_configs + result.quarantined.len() as u64;
    (result.evals_used, failed)
}

/// The traced campaign and every layer probe; `untraced` are CLI runs of
/// the same campaign, which the traced one must reproduce bit for bit.
/// Counts the traced campaigns' evaluations once every check passed.
fn layers(
    runner: &Runner,
    w: &Workload,
    tseed: u64,
    untraced: &[Campaign],
    rep: &mut RunReport,
) -> Result<(), String> {
    let spec = w.spec(tseed);

    // Set-up layers, each through its own entry point.
    let t = Instant::now();
    let stack = spec.build_stack(&Telemetry::disabled())?;
    let build_stack_s = since(t);
    rep.put("core.build_stack_s", build_stack_s);
    let board = spec.board();
    let validator = Validator::new(&board, validator_settings(&spec));
    let t = Instant::now();
    let base = validator.base_platform().map_err(|e| e.to_string())?;
    rep.put("hw.probe_s", since(t));
    if base != stack.base {
        return Err("latency probes disagree with the campaign stack".to_string());
    }
    let t = Instant::now();
    let traces = stack
        .suite
        .iter()
        .map(|k| k.trace().map_err(|e| format!("tracing {}: {e}", k.name)))
        .collect::<Result<Vec<_>, _>>()?;
    rep.put("kernels.trace_s", since(t));
    let insts: usize = traces.iter().map(TraceBuffer::len).sum();
    rep.put("kernels.trace_insts", insts as f64);
    let bytes = insts * std::mem::size_of::<TraceRecord>();
    rep.put("kernels.trace_mb", bytes as f64 / (1024.0 * 1024.0));
    let t = Instant::now();
    let frozen = frozen_dims(&stack.space, &stack.suite, &stack.base);
    let coverage_s = since(t);
    rep.put("analyzer.coverage_s", coverage_s);
    rep.put("analyzer.frozen_dims", frozen.len() as f64);

    // The campaign, with the board and the cost function wrapped.
    let hw = Arc::new(TimedBoard::new(spec.board()));
    let cost = LazySuiteCost::new(
        Arc::clone(&hw) as Arc<dyn HardwarePlatform>,
        &stack.suite,
        stack.base.clone(),
        validator.decoder(),
        CostMetric::CpiError,
    )
    .map_err(|e| e.to_string())?;
    let tuner = tuner_for(&spec, &frozen);
    let timed = TimedCost {
        inner: &cost,
        epoch: Instant::now(),
        spans: Mutex::new(Vec::new()),
    };
    let result = tuner.try_tune(&stack.space, &timed, cost.len());
    let race_wall = since(timed.epoch);
    let spans = timed
        .spans
        .into_inner()
        .expect("span log is never poisoned");
    check_reproduces(&stack.space, &stack.base, &result, untraced)?;

    rep.put("hw.measure_calls", hw.calls.load(Ordering::Relaxed) as f64);
    rep.put(
        "hw.measure_s",
        hw.nanos.load(Ordering::Relaxed) as f64 * 1e-9,
    );
    rep.put(
        "hw.measure_failed",
        hw.failed.load(Ordering::Relaxed) as f64,
    );

    let durations: Vec<f64> = spans.iter().map(|s| s.end - s.start).collect();
    let busy: f64 = durations.iter().sum();
    rep.put("eval.count", spans.len() as f64);
    rep.put("eval.busy_s", busy);
    if !durations.is_empty() {
        rep.put("eval.p50_us", percentile(&durations, 50.0) * 1e6);
        rep.put("eval.p99_us", percentile(&durations, 99.0) * 1e6);
    }
    let mut first_touch: BTreeMap<usize, EvalSpan> = BTreeMap::new();
    for s in &spans {
        let first = first_touch.entry(s.instance).or_insert(*s);
        if s.start < first.start {
            *first = *s;
        }
    }
    let first_touch_s = first_touch.values().map(|s| s.end - s.start).sum();
    rep.put("eval.first_touch_s", first_touch_s);
    rep.put("eval.errors", spans.iter().filter(|s| !s.ok).count() as f64);
    rep.put(
        "core.apply_us",
        apply_us(&stack.space, &result, &stack.base),
    );

    let intervals: Vec<(f64, f64)> = spans.iter().map(|s| (s.start, s.end)).collect();
    rep.put("race.wall_s", race_wall);
    rep.put("race.self_s", race_wall - union_length(&intervals));
    rep.put("race.thread_util", busy / (THREADS as f64 * race_wall));
    rep.put("race.iterations", result.history.len() as f64);
    let blocks: usize = result.history.iter().map(|h| h.blocks_used).sum();
    let raced: usize = result.history.iter().map(|h| h.configs_raced).sum();
    rep.put("race.blocks", blocks as f64);
    rep.put("race.configs_raced", raced as f64);
    rep.put("race.cache_hit_rate", result.cache_hit_rate());
    rep.put(
        "race.evals_per_config",
        result.evals_used as f64 / raced as f64,
    );

    let tuned = apply(&stack.space, &result.best, &stack.base);
    let sim = Simulator::with_decoder(tuned, validator.decoder(), SimOptions::default());
    sim_layers(&sim, &stack.suite, &traces, &spans, rep)?;
    decoder_layer(&validator, &traces, rep);

    // The distributed layer: on the distributed workload, the campaign
    // itself through the worker pool; elsewhere, a pool with one worker
    // per evaluation thread evaluating the final elites on every instance.
    let workers = w.workers.max(THREADS);
    let pool = TimedDispatch {
        inner: worker_pool(runner, w, workers, &stack.cost),
        batches: Mutex::new(Vec::new()),
    };
    let tune_wall = if w.workers > 0 {
        let pool = Arc::new(pool);
        let t = Instant::now();
        let dist = tuner_for(&spec, &frozen)
            .with_dispatch(Arc::clone(&pool) as _)
            .try_tune(&stack.space, &*stack.cost, cost.len());
        let dist_wall = since(t);
        if dist.best_cost.to_bits() != result.best_cost.to_bits()
            || dist.evals_used != result.evals_used
            || dist.best != result.best
        {
            return Err("the worker pool changed the campaign outcome".to_string());
        }
        let pool = Arc::try_unwrap(pool).expect("the tuner holding the pool is gone");
        dist_layer(&take_batches(pool), busy, workers, rep);
        let (evals, failed) = evals_of(&dist);
        rep.count("traced campaign through the worker pool", evals, failed);
        dist_wall
    } else {
        let local_busy = probe_pool(&pool, &stack.space, &result, &cost, &spec)?;
        dist_layer(&take_batches(pool), local_busy, workers, rep);
        race_wall
    };

    // Overhead of the traced campaign (set-up plus tuning, as the CLI
    // runs it) against the untraced CLI median.
    let untraced_wall = median(&untraced.iter().map(|c| c.wall_s).collect::<Vec<_>>());
    let traced_wall = build_stack_s + coverage_s + tune_wall;
    rep.put(
        "trace_overhead_pct",
        100.0 * (traced_wall - untraced_wall) / untraced_wall,
    );
    let (evals, failed) = evals_of(&result);
    rep.count("traced campaign", evals, failed);
    Ok(())
}

fn validator_settings(spec: &CampaignSpec) -> ValidatorSettings {
    ValidatorSettings {
        kind: spec.kind,
        revision: Revision::Fixed,
        scale: spec.scale,
        tuner: spec.tuner_settings(),
        metric: CostMetric::CpiError,
    }
}

/// The dimensions `racesim tune` freezes: those no kernel in the suite
/// can observe, pinned at their defaults.
fn frozen_dims(
    space: &ParamSpace,
    suite: &[Kernel],
    base: &racesim_sim::Platform,
) -> Vec<(usize, Value)> {
    let profiles: Vec<_> = suite
        .iter()
        .map(|k| racesim_analyzer::ir::profile(&k.name, &k.program))
        .collect();
    let matrix = CoverageMatrix::build(space, &profiles, base);
    let defaults = space.default_configuration();
    matrix
        .params
        .iter()
        .enumerate()
        .filter(|(_, p)| p.count() == 0)
        .map(|(i, _)| (i, defaults.value(i)))
        .collect()
}

fn tuner_for(spec: &CampaignSpec, frozen: &[(usize, Value)]) -> RacingTuner {
    let tuner = RacingTuner::new(spec.tuner_settings());
    if frozen.is_empty() {
        tuner
    } else {
        tuner.with_frozen(frozen.to_vec())
    }
}

/// The traced campaign must end exactly where every untraced CLI run of
/// it ended: same evaluation count, same printed cost, and the same tuned
/// configuration file, byte for byte.
fn check_reproduces(
    space: &ParamSpace,
    base: &racesim_sim::Platform,
    result: &TuneResult,
    untraced: &[Campaign],
) -> Result<(), String> {
    if untraced.is_empty() {
        return Err("no untraced run to compare against".to_string());
    }
    let tuned_text = config_text::to_text(&apply(space, &result.best, base));
    let cost_text = format!("{:.2}", result.best_cost);
    for c in untraced {
        if c.summary.evals != result.evals_used
            || c.summary.best_cost_text != cost_text
            || c.summary.failed_configs != result.failed_configs
            || c.tuned_text != tuned_text
        {
            return Err(format!(
                "traced campaign ({cost_text}%, {} evaluations) differs from the CLI's \
                 ({}%, {} evaluations) or its tuned config",
                result.evals_used, c.summary.best_cost_text, c.summary.evals
            ));
        }
    }
    Ok(())
}

/// Mean wall time of one `params::apply` over the final elites.
fn apply_us(space: &ParamSpace, result: &TuneResult, base: &racesim_sim::Platform) -> f64 {
    const CALLS: usize = 2000;
    let configs: Vec<&Configuration> = result.elites.iter().map(|(c, _)| c).collect();
    let t = Instant::now();
    for i in 0..CALLS {
        black_box(apply(space, black_box(configs[i % configs.len()]), base));
    }
    since(t) * 1e6 / CALLS as f64
}

/// Simulator throughput per kernel category on the tuned platform (best
/// of 3 per trace), the fixed cost of an empty run, the instructions the
/// campaign simulated, and the simulated core and memory statistics.
fn sim_layers(
    sim: &Simulator,
    suite: &[Kernel],
    traces: &[TraceBuffer],
    spans: &[EvalSpan],
    rep: &mut RunReport,
) -> Result<(), String> {
    let mut per_category: BTreeMap<String, (u64, f64)> = BTreeMap::new();
    let (mut host_s, mut cycles, mut dram) = (0.0, 0u64, 0u64);
    let (mut l1d, mut l1d_miss, mut l2, mut l2_miss) = (0u64, 0u64, 0u64, 0u64);
    let (mut cpi, mut mpki) = (Vec::new(), Vec::new());
    for (k, trace) in suite.iter().zip(traces) {
        let mut best = f64::INFINITY;
        let mut stats = None;
        for _ in 0..3 {
            let t = Instant::now();
            let s = sim
                .run(black_box(trace))
                .map_err(|e| format!("simulating {}: {e}", k.name))?;
            best = best.min(since(t));
            stats = Some(s);
        }
        let s = stats.expect("three runs happened");
        let entry = per_category.entry(k.category.to_string()).or_default();
        entry.0 += s.core.instructions;
        entry.1 += best;
        host_s += best;
        cycles += s.core.cycles;
        cpi.push(s.cpi());
        mpki.push(s.core.branch_mpki());
        l1d += s.mem.l1d.accesses;
        l1d_miss += s.mem.l1d.misses;
        l2 += s.mem.l2.accesses;
        l2_miss += s.mem.l2.misses;
        dram += s.mem.dram_accesses;
    }
    for (category, (insts, secs)) in &per_category {
        rep.put(
            format!("sim.minst_per_s.{category}"),
            *insts as f64 / secs / 1e6,
        );
    }
    let no_records: &[TraceRecord] = &[];
    let empty: Vec<f64> = (0..201)
        .map(|_| {
            let t = Instant::now();
            let _ = black_box(sim.run_records(black_box(no_records)));
            since(t) * 1e6
        })
        .collect();
    rep.put("sim.empty_run_us", median(&empty));
    let simulated: usize = spans
        .iter()
        .filter(|s| s.ok)
        .map(|s| traces[s.instance].len())
        .sum();
    rep.put("sim.insts_simulated", simulated as f64);
    rep.put("sim.host_ns_per_sim_cycle", host_s * 1e9 / cycles as f64);
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
    rep.put("uarch.cpi_mean", mean(&cpi));
    rep.put("uarch.branch_mpki", mean(&mpki));
    rep.put("mem.l1d_miss_rate", l1d_miss as f64 / l1d as f64);
    rep.put("mem.l2_miss_rate", l2_miss as f64 / l2 as f64);
    rep.put("mem.dram_accesses", dram as f64);
    Ok(())
}

/// The decode floor: one `Decoder::decode` per distinct instruction word
/// of the suite (best of 3).
fn decoder_layer(validator: &Validator<'_>, traces: &[TraceBuffer], rep: &mut RunReport) {
    let words: Vec<EncodedInst> = traces
        .iter()
        .flat_map(|t| t.records().iter().map(TraceRecord::word))
        .collect::<HashSet<_>>()
        .into_iter()
        .collect();
    let decoder = validator.decoder();
    let best = (0..3)
        .map(|_| {
            let t = Instant::now();
            for &word in &words {
                let _ = black_box(decoder.decode(black_box(word)));
            }
            since(t)
        })
        .fold(f64::INFINITY, f64::min);
    rep.put("decoder.unique_words", words.len() as f64);
    rep.put("decoder.decode_all_us", best * 1e6);
}

/// A pool of `workers` `racesim worker` processes for the workload, as
/// `racesim tune --workers` builds it.
fn worker_pool(
    runner: &Runner,
    w: &Workload,
    workers: usize,
    fallback: &Arc<LazySuiteCost>,
) -> WorkerPool {
    let init = InitSpec {
        core: w.core.to_string(),
        scale: w.scale,
        faults: "none".to_string(),
        fault_seed: 1,
        timeout_ms: 0,
        worker: 0,
        static_bounds: false,
    };
    let argv = vec![runner.bin.display().to_string(), "worker".to_string()];
    WorkerPool::new(
        Box::new(ProcessLauncher::new(argv)),
        PoolOptions::new(workers, init),
        Arc::clone(fallback) as Arc<dyn TryCostFn + Send + Sync>,
        Telemetry::disabled(),
    )
}

/// The pool evaluating the final elites on every instance, one batch per
/// instance like a race block. Every outcome must equal the in-process
/// one. Returns the in-process evaluation time of the same tasks.
fn probe_pool(
    pool: &TimedDispatch,
    space: &ParamSpace,
    result: &TuneResult,
    cost: &LazySuiteCost,
    spec: &CampaignSpec,
) -> Result<f64, String> {
    let retry = spec.tuner_settings().race.retry;
    let tasks: Vec<&Configuration> = result.elites.iter().map(|(c, _)| c).collect();
    let mut local_busy = 0.0;
    for instance in 0..cost.len() {
        let remote = pool.eval_batch(space, &tasks, instance, &retry);
        let t = Instant::now();
        let local: Vec<_> = tasks
            .iter()
            .map(|c| eval_with_retry(cost, c, space, instance, &retry))
            .collect();
        local_busy += since(t);
        if remote != local {
            return Err(format!(
                "worker pool and in-process disagree on instance {instance}"
            ));
        }
    }
    Ok(local_busy)
}

fn take_batches(pool: TimedDispatch) -> Vec<(f64, usize)> {
    // Dropping the pool kills and reaps its worker processes.
    pool.batches
        .into_inner()
        .expect("batch log is never poisoned")
}

/// Dispatch metrics from per-batch walls; the overhead per task is the
/// batch wall beyond what `workers` in-process evaluators would need for
/// `local_busy` seconds of evaluation.
fn dist_layer(batches: &[(f64, usize)], local_busy: f64, workers: usize, rep: &mut RunReport) {
    let tasks: usize = batches.iter().map(|&(_, n)| n).sum();
    let walls: Vec<f64> = batches.iter().map(|&(s, _)| s).collect();
    let wall: f64 = walls.iter().sum();
    rep.put("dist.tasks", tasks as f64);
    rep.put("dist.batches", batches.len() as f64);
    if let Some(&(first, _)) = batches.first() {
        rep.put("dist.first_batch_s", first);
        rep.put("dist.batch_p50_ms", percentile(&walls, 50.0) * 1e3);
        rep.put("dist.batch_p99_ms", percentile(&walls, 99.0) * 1e3);
    }
    rep.put("dist.batch_wall_s", wall);
    rep.put(
        "dist.overhead_ms_per_task",
        (wall - local_busy / workers as f64) * 1e3 / tasks as f64,
    );
}
