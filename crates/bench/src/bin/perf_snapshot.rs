//! Writes a reproducible performance snapshot of the simulator itself —
//! the perf trajectory the repo tracks across changes.
//!
//! The snapshot (`BENCH_10.json` by default) records:
//!
//! * simulator throughput (instructions per second) per kernel
//!   category, best of three runs;
//! * the end-to-end wall time of a `fig2_race`-style A53 tune;
//! * the wall time of one staged racing iteration run sequentially and
//!   again sharded over two spawned worker processes (the
//!   `racesim-dist` coordinator path), so the snapshot tracks the
//!   dispatch overhead of distributed campaigns;
//! * the percent of fresh evaluations the static bounds engine avoids
//!   on the pinned elimination scenario (`static_elim_pct`);
//! * the self-profiler's phase breakdown (percent of profiled wall per
//!   phase path) over the micro-benchmark suite.
//!
//! ```text
//! perf_snapshot [--out FILE] [--gate BASELINE] [--tolerance 0.25]
//! ```
//!
//! With `--gate`, every per-category throughput is compared against the
//! baseline file and the process exits non-zero when any category
//! regressed by more than the tolerance (default 25%) — the CI
//! regression gate. Scale and budget come from `RACESIM_SCALE` /
//! `RACESIM_BUDGET` as for every other experiment binary.
//!
//! The hidden `--dist-worker` flag turns this binary into a wire-serving
//! evaluation worker; the distributed-tune timing spawns copies of
//! itself in that mode so the measurement has no dependency on the CLI
//! binary being built.

use racesim_bench::{banner, validate, ExperimentConfig};
use racesim_core::{CampaignSpec, Revision};
use racesim_kernels::{microbench_suite, Scale};
use racesim_sim::{Platform, Simulator};
use racesim_telemetry::json::{self, Value};
use racesim_telemetry::{Profiler, Telemetry};
use racesim_uarch::CoreKind;
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

/// Throughput-measurement repetitions; the best (max) run is recorded so
/// the snapshot tracks the machine's capability, not its noise.
const REPS: usize = 3;

fn measure_throughput(cfg: &ExperimentConfig) -> BTreeMap<String, f64> {
    // insts and best wall per category, summed over each category's
    // kernels within a rep, best-of-reps on the aggregate. Traces are
    // recorded compact once, outside the timed replays.
    let suite = microbench_suite(cfg.scale);
    let traces: Vec<_> = suite
        .iter()
        .map(|w| {
            let trace = w.compact_trace().expect("kernel traces");
            (w.category.to_string(), trace)
        })
        .collect();
    let mut best: BTreeMap<String, f64> = BTreeMap::new();
    for _ in 0..REPS {
        let mut insts: BTreeMap<String, u64> = BTreeMap::new();
        let mut wall_ns: BTreeMap<String, u64> = BTreeMap::new();
        for (category, trace) in &traces {
            let sim = Simulator::new(Platform::a53_like());
            let t0 = Instant::now();
            let stats = sim.run_compact(trace).expect("trace replays");
            *wall_ns.entry(category.clone()).or_default() += t0.elapsed().as_nanos() as u64;
            *insts.entry(category.clone()).or_default() += stats.core.instructions;
        }
        for (category, n) in insts {
            let ips = n as f64 * 1e9 / wall_ns[&category].max(1) as f64;
            let slot = best.entry(category).or_insert(0.0);
            if ips > *slot {
                *slot = ips;
            }
        }
    }
    best
}

fn measure_phases(cfg: &ExperimentConfig) -> BTreeMap<String, f64> {
    // One shared profiler across the whole suite: the breakdown reflects
    // where an aggregate simulation run spends its time.
    let profiler = Profiler::enabled();
    for w in microbench_suite(cfg.scale) {
        let trace = w.compact_trace().expect("kernel traces");
        Simulator::new(Platform::a53_like())
            .with_profiler(profiler.clone())
            .run_compact(&trace)
            .expect("trace replays");
    }
    let snap = profiler.snapshot();
    let total = snap.total_ns().max(1) as f64;
    let mut out = BTreeMap::new();
    for line in snap.render_folded().lines() {
        let Some((path, self_ns)) = line.rsplit_once(' ') else {
            continue;
        };
        let Ok(ns) = self_ns.parse::<u64>() else {
            continue;
        };
        let pct = 100.0 * ns as f64 / total;
        if pct >= 0.05 {
            out.insert(path.replace(';', "/"), pct);
        }
    }
    out
}

/// Times one staged A53 racing iteration twice: evaluated in process,
/// then sharded over `workers` spawned copies of this binary running in
/// `--dist-worker` mode. Both runs share one `CampaignSpec`, so the
/// pair isolates pure dispatch overhead (or speedup) — the campaign
/// outcome is bit-identical by construction and asserted here.
fn measure_dist_tune(cfg: &ExperimentConfig, workers: usize) -> (f64, f64) {
    let spec = CampaignSpec {
        kind: CoreKind::InOrder,
        scale: cfg.scale,
        // One iteration at a modest budget: enough evaluations to keep
        // every worker busy, small enough for a CI-sized snapshot.
        budget: cfg.budget.clamp(60, 400),
        seed: cfg.seed,
        threads: 1,
        workers: 0,
        max_iterations: Some(1),
        static_bounds: false,
        timeout_ms: None,
        fault_profile: "none".to_string(),
        fault_seed: 1,
        frozen: Vec::new(),
    };
    let time_one = |pool_workers: usize| -> (f64, f64) {
        let telemetry = Telemetry::disabled();
        let stack = spec.build_stack(&telemetry).expect("campaign stack");
        let n_instances = stack.cost.len();
        let mut tuner = spec.tuner(&stack, &telemetry).expect("campaign tuner");
        if pool_workers > 0 {
            let exe = std::env::current_exe().expect("own binary path");
            let argv = vec![exe.display().to_string(), "--dist-worker".to_string()];
            let init = racesim_dist::InitSpec {
                core: spec.core_name().to_string(),
                scale: spec.scale.divisor(),
                faults: spec.fault_profile.clone(),
                fault_seed: spec.fault_seed,
                timeout_ms: 0,
                worker: 0,
                static_bounds: false,
            };
            let pool = racesim_dist::WorkerPool::new(
                Box::new(racesim_dist::ProcessLauncher::new(argv)),
                racesim_dist::PoolOptions::new(pool_workers, init),
                Arc::clone(&stack.eval),
                telemetry.clone(),
            );
            tuner = tuner.with_dispatch(Arc::new(pool));
        }
        let t0 = Instant::now();
        let result = tuner.try_tune(&stack.space, &*stack.eval, n_instances);
        let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
        assert!(
            result.best_cost.is_finite(),
            "staged tune must reach a finite best cost"
        );
        (wall_ms, result.best_cost)
    };
    let (seq_ms, seq_cost) = time_one(0);
    let (dist_ms, dist_cost) = time_one(workers);
    assert_eq!(
        seq_cost.to_bits(),
        dist_cost.to_bits(),
        "distributed tune must be bit-identical to sequential"
    );
    (seq_ms, dist_ms)
}

/// Runs the pinned static-elimination scenario twice — bounds on, then
/// off — and returns the percent of fresh evaluations the bounds engine
/// avoided. The scenario is pinned rather than taken from the
/// environment: eliminations only fire when races are short enough for
/// the incumbent's recorded prefix cost to dip under the bound ceiling,
/// so the budget/scale/seed triple below is the same one the CI
/// bounds-smoke job exercises. The frozen dimensions mirror what
/// `racesim tune` freezes from the coverage matrix on the shipped
/// suite, so the campaign here is the CLI campaign.
fn measure_static_elim() -> f64 {
    let spec = |static_bounds: bool| CampaignSpec {
        kind: CoreKind::InOrder,
        scale: Scale::divide_by(2048),
        budget: 120,
        seed: 9,
        threads: 4,
        workers: 0,
        max_iterations: None,
        static_bounds,
        timeout_ms: None,
        fault_profile: "none".to_string(),
        fault_seed: 1,
        frozen: [
            "lat.int_div",
            "lat.fp_div",
            "lat.fp_sqrt",
            "lat.fp_mov",
            "lat.simd_mul",
        ]
        .iter()
        .map(|p| ((*p).to_string(), "I0".to_string()))
        .collect(),
    };
    let telemetry = Telemetry::disabled();
    let on = spec(true).run(&telemetry).expect("bounds-on tune");
    let off = spec(false).run(&telemetry).expect("bounds-off tune");
    assert!(
        on.static_eliminated >= 1,
        "the pinned scenario must eliminate at least one configuration"
    );
    // Elimination must not change the outcome: same survivors, same
    // recorded costs, bit for bit.
    assert_eq!(on.elites.len(), off.elites.len(), "survivor sets differ");
    for ((ca, a), (cb, b)) in on.elites.iter().zip(&off.elites) {
        assert_eq!(ca, cb, "survivor sets differ");
        assert_eq!(a.to_bits(), b.to_bits(), "survivor costs differ");
    }
    assert!(off.evals_used > 0, "bounds-off run must evaluate");
    100.0 * (off.evals_used.saturating_sub(on.evals_used)) as f64 / off.evals_used as f64
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    // Hidden worker mode: serve framed evaluation requests on
    // stdin/stdout until the coordinator says shutdown.
    if args.iter().any(|a| a == "--dist-worker") {
        if let Err(e) = racesim_dist::serve_stdio(&racesim_dist::WorkerOptions::default()) {
            eprintln!("dist worker: {e}");
            std::process::exit(1);
        }
        return;
    }
    let flag = |name: &str| {
        args.iter()
            .position(|a| a == name)
            .and_then(|i| args.get(i + 1).cloned())
    };
    let out_path = flag("--out").unwrap_or_else(|| "BENCH_10.json".to_string());
    let gate = flag("--gate");
    let tolerance: f64 = flag("--tolerance")
        .map(|v| v.parse().expect("--tolerance takes a fraction like 0.25"))
        .unwrap_or(0.25);

    let cfg = ExperimentConfig::from_env();
    banner("perf snapshot: simulator throughput, tune wall time, phase breakdown");

    println!("measuring throughput per kernel category ({REPS} reps)...");
    let throughput = measure_throughput(&cfg);
    for (category, ips) in &throughput {
        println!("  {category:<18} {:.2} Minst/s", ips / 1e6);
    }

    println!("profiling the phase breakdown...");
    let phases = measure_phases(&cfg);

    println!("timing an end-to-end A53 tune (budget {})...", cfg.budget);
    let t0 = Instant::now();
    let outcome = validate(CoreKind::InOrder, Revision::Fixed, &cfg);
    let tune_wall_ms = t0.elapsed().as_secs_f64() * 1e3;
    println!(
        "  {tune_wall_ms:.0} ms, {} evaluations, best cost {:.1}%",
        outcome.tune.evals_used, outcome.tune.best_cost
    );

    println!("timing one staged iteration, sequential vs 2 spawned workers...");
    let (dist_seq_wall_ms, dist_tune_wall_ms) = measure_dist_tune(&cfg, 2);
    println!(
        "  sequential {dist_seq_wall_ms:.0} ms, distributed {dist_tune_wall_ms:.0} ms \
         ({:.2}x, bit-identical outcome)",
        dist_seq_wall_ms / dist_tune_wall_ms.max(1e-9)
    );

    println!("measuring static-bounds elimination on the pinned scenario...");
    let static_elim_pct = measure_static_elim();
    println!("  {static_elim_pct:.2}% of fresh evaluations avoided");

    let scale: u64 = std::env::var("RACESIM_SCALE")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(512);
    let map = |m: &BTreeMap<String, f64>| Value::obj(m.iter().map(|(k, v)| (k, (*v).into())));
    let snapshot = Value::obj([
        ("schema_version", Value::from(1u64)),
        ("scale", scale.into()),
        ("throughput", map(&throughput)),
        ("tune_wall_ms", tune_wall_ms.into()),
        ("dist_seq_wall_ms", dist_seq_wall_ms.into()),
        ("dist_tune_wall_ms", dist_tune_wall_ms.into()),
        ("static_elim_pct", static_elim_pct.into()),
        ("phases", map(&phases)),
    ]);
    std::fs::write(&out_path, format!("{snapshot}\n")).expect("write snapshot");
    println!("snapshot written to {out_path}");

    if let Some(baseline_path) = gate {
        let baseline = std::fs::read_to_string(&baseline_path).expect("read baseline");
        let baseline = json::parse(&baseline)
            .unwrap_or_else(|e| panic!("baseline {baseline_path} is not JSON: {e}"));
        let base = match baseline.get("throughput") {
            Some(Value::Obj(fields)) if !fields.is_empty() => fields,
            _ => panic!("baseline {baseline_path} has no throughput"),
        };
        let mut regressed = false;
        for (category, v) in base {
            let base_ips = v
                .as_f64()
                .unwrap_or_else(|| panic!("baseline throughput {category:?} is not a number"));
            let now = throughput.get(category).copied().unwrap_or(0.0);
            let floor = base_ips * (1.0 - tolerance);
            let verdict = if now < floor {
                regressed = true;
                "REGRESSED"
            } else {
                "ok"
            };
            println!(
                "gate {category:<18} baseline {:.2} Minst/s, now {:.2} Minst/s  {verdict}",
                base_ips / 1e6,
                now / 1e6
            );
        }
        if regressed {
            eprintln!(
                "error: throughput regressed by more than {:.0}% vs {baseline_path}",
                100.0 * tolerance
            );
            std::process::exit(1);
        }
        println!("gate passed (tolerance {:.0}%)", 100.0 * tolerance);
    }
}
