//! `racesim` — command-line interface to the hardware-validation toolkit.
//!
//! ```text
//! racesim list                              list all workloads
//! racesim simulate --platform a53 --workload MD [--scale 2048]
//! racesim measure  --board a53 --workload MD [--scale 2048]
//! racesim probe    --board a53              lmbench-style latency estimation
//! racesim config   --platform a72           dump a platform config file
//! racesim validate --core a53 [--budget N] [--scale N] [--out tuned.cfg]
//! racesim tune     --core a53 [--checkpoint F] [--resume F] [--faults PROFILE] [--timeout MS] [--telemetry F]
//!                  [--workers N] [--worker-cmd CMD]
//! racesim worker                            serve framed evaluation requests on stdin/stdout
//! racesim report   <JOURNAL> [--json]
//! racesim replay   <JOURNAL> [--json]
//! racesim diff     [--core a53] [--revision-a REV] [--revision-b REV] [--tolerance PCT]
//! racesim profile  [--suite micro|spec|all] [--workload NAME] [--json] [--folded FILE]
//! racesim lint     [--json] [--suite] [--revision fixed|initial] [--deny-warnings]
//! ```

use racesim_core::{
    analysis, board_for, diff, latency, report, unobserved_dimensions, CampaignSpec, Revision,
    Validator, ValidatorSettings,
};
use racesim_hw::{FaultPlan, HardwarePlatform, ReferenceBoard};
use racesim_kernels::{microbench_suite, probes, spec_suite, Scale, Workload};
use racesim_race::replay::{compare, RecordedCampaign, Verdict};
use racesim_race::{RaceSettings, TunerSettings};
use racesim_sim::{config_text, Platform, Simulator};
use racesim_telemetry::json::Value;
use racesim_telemetry::{parse_journal, read_journal_lossy, Event, JournalEntry, Telemetry};
use racesim_uarch::CoreKind;
use std::collections::{BTreeMap, HashMap};
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Duration;

const USAGE: &str = "\
racesim — hardware-validated simulation toolkit

USAGE:
    racesim <COMMAND> [OPTIONS]

COMMANDS:
    list                          list every workload (micro-benchmarks, SPEC proxies, probes)
    simulate                      replay one workload through a simulated platform
    measure                       run one workload on a reference board (perf counters)
    probe                         estimate cache/memory latencies on a board (lmbench style)
    config                        print a platform configuration file
    validate                      run the full validation methodology and save the tuned model
    tune                          fault-tolerant tuning with checkpoint/resume and fault injection
    worker                        serve framed evaluation requests over stdin/stdout (spawned by
                                  `tune --workers`; campaigns stay bit-identical to sequential)
    report <JOURNAL>              summarize a telemetry journal written by `tune --telemetry`
    replay <JOURNAL>              re-run the campaign a journal records and verify, bit for bit,
                                  that the replay reproduces the recorded outcome
    diff                          per-kernel CPI comparison between two model revisions,
                                  platform configs, or saved baselines (the regression gate)
    profile                       self-profile the simulator: per-kernel phase tree of where
                                  wall time goes (fetch/decode/execute, memory levels, stalls)
    lint                          statically check platforms, parameter spaces and kernels
    help                          show this message

COMMON OPTIONS:
    --platform <a53|a72|FILE>     simulated platform preset or config file
    --board <a53|a72>             reference board
    --core <a53|a72>              core to validate
    --workload <NAME>             workload name (see `racesim list`)
    --scale <DIVISOR>             dynamic-instruction scale divisor (default 2048)
    --budget <N>                  racing evaluation budget (default 2000)
    --threads <N>                 evaluation threads (default: all)
    --out <FILE>                  where to write the tuned config (validate, tune)
    --revision <fixed|initial>    model revision to lint (default fixed)
    --json                        machine-readable lint output (stable schema)

LINT OPTIONS:
    --suite                       whole-campaign analysis: kernel IR lints (RA4xx),
                                  the parameter-coverage matrix and suite-level
                                  coverage lints (RA41x) and the determinism
                                  audit (RA5xx)
    --deny-warnings               exit non-zero on warnings too, not just errors
                                  (for CI gates)

TUNE OPTIONS:
    --seed <N>                    tuner RNG seed (default 0xBADCAB1E); runs are deterministic per seed
    --checkpoint <FILE>           write a resumable snapshot after every completed iteration
    --resume <FILE>               restore tuner state from a snapshot (missing file = fresh run)
    --max-iterations <N>          stop after N iterations in this process (for staged runs)
    --timeout <MS>                wall-clock watchdog per evaluation; a hang becomes a config fault
    --faults <none|transient|aggressive>
                                  inject deterministic board faults into the tune measurements
    --fault-seed <N>              seed of the fault plan (default 1)
    --telemetry <FILE>            journal campaign events and metrics as JSONL (appends when
                                  resuming an existing journal; see `racesim report`)
    --workers <N>                 shard evaluations over N spawned worker processes; results
                                  are reduced in canonical order, so checkpoints, elimination
                                  order and the journal digest are bit-identical to --workers 0
    --worker-cmd <CMD>            command (split on whitespace) to spawn one worker
                                  (default: this binary with the `worker` subcommand)
    --worker-timeout <MS>         coordinator-side deadline per dispatched evaluation; a worker
                                  that blows it is killed and its task re-dispatched (default 120000)

WORKER OPTIONS:
    --exit-after <N>              die (close the stream, no reply) on the Nth evaluation request —
                                  deterministic fault injection for the acceptance tests
    --only-worker <K>             apply --exit-after only when the coordinator assigns slot K

REPORT OPTIONS:
    --json                        machine-readable campaign summary (stable schema)

REPLAY OPTIONS:
    --json                        machine-readable divergence report (stable schema)
                                  exit code: 0 = match or verified prefix, 1 = diverged

DIFF OPTIONS:
    --core <a53|a72>              core whose suite is captured (default a53)
    --revision-a <fixed|initial>  model revision of side A (default fixed)
    --revision-b <fixed|initial>  model revision of side B (default fixed)
    --a <FILE>                    side A from a file instead: a saved CPI baseline
                                  (see --save) or a platform config
    --b <FILE>                    side B from a file instead
    --tolerance <PCT>             allowed per-kernel CPI divergence in percent
                                  (default 0 = bit-identical CPI required)
    --save <FILE>                 also write side B as a baseline file for later diffs
    --json                        machine-readable diff (stable schema)
                                  exit code: 0 = within tolerance, 1 = diverged

PROFILE OPTIONS:
    --suite <micro|spec|all>      which kernel suite to profile (default micro)
    --workload <NAME>             profile only this workload
    --json                        machine-readable phase tree (stable schema)
    --folded <FILE>               also write a folded-stack file (flamegraph.pl input)
";

/// Every command with the flags it reads. Any other flag is an error,
/// so a typo never silently falls back to a default. `--suite` is
/// boolean for `lint` and names a suite for `profile`.
#[rustfmt::skip]
const COMMANDS: &[(&str, &str, &str)] = &[
    // (command, value-taking flags, boolean flags)
    ("list", "scale", ""),
    ("simulate", "platform workload scale", ""),
    ("measure", "board workload scale", ""),
    ("probe", "board", ""),
    ("config", "platform", ""),
    ("validate", "core scale budget threads out", ""),
    ("tune", "core scale budget seed threads workers max-iterations timeout faults fault-seed \
              telemetry checkpoint resume worker-cmd worker-timeout out", ""),
    ("worker", "exit-after only-worker", ""),
    ("report", "", "json"),
    ("replay", "", "json"),
    ("diff", "core scale revision-a revision-b a b tolerance save", "json"),
    ("profile", "suite workload scale platform folded", "json"),
    ("lint", "revision scale platform", "json suite deny-warnings"),
    ("help", "", ""),
];

fn parse_flags(cmd: &str, args: &[String]) -> Result<HashMap<String, String>, String> {
    let Some(&(_, values, bools)) = COMMANDS.iter().find(|(c, ..)| *c == cmd) else {
        return Err(format!("unknown command {cmd:?}\n\n{USAGE}"));
    };
    let mut flags = HashMap::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let Some(key) = a.strip_prefix("--") else {
            return Err(format!("unexpected argument {a:?}"));
        };
        if bools.split_whitespace().any(|f| f == key) {
            flags.insert(key.to_string(), "true".to_string());
            continue;
        }
        if !values.split_whitespace().any(|f| f == key) {
            return Err(format!("unknown flag --{key} for {cmd}"));
        }
        let Some(value) = it.next() else {
            return Err(format!("flag --{key} needs a value"));
        };
        flags.insert(key.to_string(), value.clone());
    }
    Ok(flags)
}

fn scale_of(flags: &HashMap<String, String>) -> Result<Scale, String> {
    Ok(Scale::divide_by(
        opt_positive(flags, "scale")?.unwrap_or(2048),
    ))
}

fn board_of(flags: &HashMap<String, String>) -> Result<ReferenceBoard, String> {
    match flags.get("board").map(String::as_str) {
        Some("a53") | None => Ok(ReferenceBoard::firefly_a53()),
        Some("a72") => Ok(ReferenceBoard::firefly_a72()),
        Some(v) => Err(format!("unknown board {v:?} (use a53 or a72)")),
    }
}

fn platform_of(flags: &HashMap<String, String>) -> Result<Platform, String> {
    match flags.get("platform").map(String::as_str) {
        Some("a53") | None => Ok(Platform::a53_like()),
        Some("a72") => Ok(Platform::a72_like()),
        Some(path) => {
            let text =
                std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
            config_text::from_text(&text).map_err(|e| format!("cannot parse {path}: {e}"))
        }
    }
}

fn all_workloads(scale: Scale) -> Vec<Workload> {
    let mut v = microbench_suite(scale);
    v.extend(spec_suite(scale));
    v.extend(probes::probe_ladder());
    v
}

fn find_workload(flags: &HashMap<String, String>, scale: Scale) -> Result<Workload, String> {
    let name = flags
        .get("workload")
        .ok_or_else(|| "missing --workload".to_string())?;
    all_workloads(scale)
        .into_iter()
        .find(|w| &w.name == name)
        .ok_or_else(|| format!("unknown workload {name:?} (see `racesim list`)"))
}

fn cmd_list(flags: &HashMap<String, String>) -> Result<(), String> {
    let scale = scale_of(flags)?;
    let mut rows = Vec::new();
    for w in all_workloads(scale) {
        let trace = w.compact_trace().map_err(|e| format!("{}: {e}", w.name))?;
        rows.push(vec![
            w.name.clone(),
            w.category.to_string(),
            trace.len().to_string(),
            if w.uninit_data { "yes" } else { "no" }.to_string(),
        ]);
    }
    print!(
        "{}",
        report::table(&["workload", "category", "insns @scale", "uninit"], &rows)
    );
    Ok(())
}

fn cmd_simulate(flags: &HashMap<String, String>) -> Result<(), String> {
    let scale = scale_of(flags)?;
    let platform = platform_of(flags)?;
    let w = find_workload(flags, scale)?;
    let trace = w.compact_trace().map_err(|e| e.to_string())?;
    let stats = Simulator::new(platform.clone())
        .run_compact(&trace)
        .map_err(|e| e.to_string())?;
    println!("platform:      {}", platform.name);
    println!("workload:      {} ({})", w.name, w.category);
    println!("instructions:  {}", stats.core.instructions);
    println!("cycles:        {}", stats.core.cycles);
    println!("CPI:           {:.4}", stats.cpi());
    println!("branch MPKI:   {:.2}", stats.core.branch_mpki());
    println!(
        "L1D misses:    {} ({:.2}% of accesses)",
        stats.mem.l1d.misses,
        100.0 * stats.mem.l1d.miss_rate()
    );
    println!("L2 misses:     {}", stats.mem.l2.misses);
    println!("DRAM accesses: {}", stats.mem.dram_accesses);
    Ok(())
}

fn cmd_measure(flags: &HashMap<String, String>) -> Result<(), String> {
    let scale = scale_of(flags)?;
    let board = board_of(flags)?;
    let w = find_workload(flags, scale)?;
    let counters = board.measure(&w).map_err(|e| e.to_string())?;
    println!("board:         {}", board.name());
    println!("workload:      {}", w.name);
    println!("instructions:  {}", counters.instructions);
    println!("cycles:        {}", counters.cycles);
    println!("CPI:           {:.4}", counters.cpi());
    println!("branch misses: {}", counters.branch_misses);
    println!("L1D misses:    {}", counters.l1d_misses);
    println!("L2 misses:     {}", counters.l2_misses);
    Ok(())
}

fn cmd_probe(flags: &HashMap<String, String>) -> Result<(), String> {
    let board = board_of(flags)?;
    println!("probing {} (lat_mem_rd ladder)...", board.name());
    let est = latency::estimate_latencies(&board).map_err(|e| e.to_string())?;
    println!("estimated L1D load-to-use latency: {} cycles", est.l1d);
    println!("estimated L2 additional latency:   {} cycles", est.l2);
    println!("estimated DRAM additional latency: {} cycles", est.dram);
    Ok(())
}

fn cmd_config(flags: &HashMap<String, String>) -> Result<(), String> {
    let platform = platform_of(flags)?;
    print!("{}", config_text::to_text(&platform));
    Ok(())
}

fn cmd_validate(flags: &HashMap<String, String>) -> Result<(), String> {
    let kind = core_of(flags)?;
    let board = board_for(kind);
    let settings = ValidatorSettings {
        kind,
        revision: Revision::Fixed,
        scale: scale_of(flags)?,
        tuner: TunerSettings {
            budget: opt_positive(flags, "budget")?.unwrap_or(TunerSettings::default().budget),
            threads: threads_of(flags)?,
            ..TunerSettings::default()
        },
        metric: racesim_core::CostMetric::CpiError,
    };
    println!("validating the {kind} model against {} ...", board.name());
    let outcome = Validator::new(&board, settings)
        .run()
        .map_err(|e| e.to_string())?;
    println!(
        "mean CPI error: {:.1}% untuned -> {:.1}% tuned ({} evaluations)",
        outcome.untuned_mean_error(),
        outcome.tuned_mean_error(),
        outcome.tune.evals_used
    );
    let rep = analysis::analyse(&outcome.tuned_results);
    for c in &rep.categories {
        println!(
            "  {:<14} mean {:>5.1}%  worst {} ({:.1}%)",
            c.category.to_string(),
            c.mean_error,
            c.worst_bench,
            c.worst_error
        );
    }
    for r in &rep.recommendations {
        println!("  fix: {r}");
    }
    if let Some(path) = flags.get("out") {
        std::fs::write(path, config_text::to_text(&outcome.tuned))
            .map_err(|e| format!("cannot write {path}: {e}"))?;
        println!("tuned configuration written to {path}");
    }
    Ok(())
}

/// `racesim worker`: serve framed evaluation requests on stdin/stdout.
/// Spawned by `tune --workers`; diagnostics go to stderr so the frame
/// stream stays clean. The `--exit-after`/`--only-worker` hooks inject
/// deterministic worker deaths for the fault-tolerance tests.
fn cmd_worker(flags: &HashMap<String, String>) -> Result<(), String> {
    let opts = racesim_dist::WorkerOptions {
        exit_after: opt_flag(flags, "exit-after")?,
        only_worker: opt_flag(flags, "only-worker")?,
    };
    match racesim_dist::serve_stdio(&opts) {
        Ok(racesim_dist::ServeEnd::Killed) => {
            eprintln!("worker: injected death, exiting without replying");
            Ok(())
        }
        Ok(_) => Ok(()),
        Err(e) => Err(format!("worker wire failure: {e}")),
    }
}

/// The two shipped cores: label, core model, and preset platform.
fn cores() -> [(&'static str, CoreKind, Platform); 2] {
    [
        ("a53", CoreKind::InOrder, Platform::a53_like()),
        ("a72", CoreKind::OutOfOrder, Platform::a72_like()),
    ]
}

fn core_of(flags: &HashMap<String, String>) -> Result<CoreKind, String> {
    match flags.get("core").map(String::as_str) {
        Some("a53") | None => Ok(CoreKind::InOrder),
        Some("a72") => Ok(CoreKind::OutOfOrder),
        Some(v) => Err(format!("unknown core {v:?} (use a53 or a72)")),
    }
}

/// `--key` parsed as a `T`; `None` when the flag is absent.
fn opt_flag<T: std::str::FromStr>(
    flags: &HashMap<String, String>,
    key: &str,
) -> Result<Option<T>, String> {
    flags
        .get(key)
        .map(|v| v.parse().map_err(|_| format!("invalid --{key} {v:?}")))
        .transpose()
}

fn parse_u64(flags: &HashMap<String, String>, key: &str, default: u64) -> Result<u64, String> {
    Ok(opt_flag(flags, key)?.unwrap_or(default))
}

/// A flag for which 0 means nothing (a scale divisor, a timeout, a racing
/// budget): it is refused rather than silently read as some other setting.
fn opt_positive(flags: &HashMap<String, String>, key: &str) -> Result<Option<u64>, String> {
    match opt_flag(flags, key)? {
        Some(0) => Err(format!("invalid --{key} 0 (must be at least 1)")),
        v => Ok(v),
    }
}

/// `--threads`; absent or 0 means every available core.
fn threads_of(flags: &HashMap<String, String>) -> Result<usize, String> {
    Ok(match parse_u64(flags, "threads", 0)? {
        0 => std::thread::available_parallelism()
            .map(|p| p.get())
            .unwrap_or(4),
        n => n as usize,
    })
}

fn fault_plan_of(flags: &HashMap<String, String>) -> Result<Option<FaultPlan>, String> {
    let seed = parse_u64(flags, "fault-seed", 1)?;
    let profile = flags.get("faults").map_or("none", String::as_str);
    FaultPlan::from_profile(profile, seed)
}

/// Flushes a telemetry journal when dropped, so every exit path of
/// [`cmd_tune`] — including `?` early returns and watchdog-induced
/// failures — leaves a fully written, parseable JSONL file behind.
struct FlushGuard(Telemetry);

impl Drop for FlushGuard {
    fn drop(&mut self) {
        self.0.flush();
    }
}

/// `racesim tune`: the fault-tolerant tuning path. Measurements happen
/// lazily inside the race (so board faults are retried, quarantined or
/// charged to the offending configuration instead of killing the run),
/// state snapshots land in `--checkpoint` after every iteration, and
/// `--resume` continues a run that died or was staged deliberately.
/// Latency probes run on the clean board; the `--faults` plan targets the
/// long campaign, which is where real boards fall over.
fn cmd_tune(flags: &HashMap<String, String>) -> Result<(), String> {
    let d = CampaignSpec::default();
    let mut spec = CampaignSpec {
        kind: core_of(flags)?,
        scale: scale_of(flags)?,
        budget: opt_positive(flags, "budget")?.unwrap_or(d.budget),
        seed: parse_u64(flags, "seed", d.seed)?,
        threads: threads_of(flags)?,
        workers: parse_u64(flags, "workers", 0)? as usize,
        max_iterations: opt_flag(flags, "max-iterations")?,
        timeout_ms: opt_positive(flags, "timeout")?,
        fault_profile: flags.get("faults").cloned().unwrap_or(d.fault_profile),
        fault_seed: parse_u64(flags, "fault-seed", d.fault_seed)?,
        ..d
    };

    // One telemetry handle threads through the whole stack: tuner, cost
    // function, board and (per evaluation) simulators all share it. When
    // resuming into an existing journal, append — the merged file stays
    // one well-formed campaign record.
    let telemetry = match flags.get("telemetry") {
        Some(path) => {
            let p = PathBuf::from(path);
            let append = flags.contains_key("resume") && p.exists();
            let t = Telemetry::to_file(&p, append)
                .map_err(|e| format!("cannot open journal {path}: {e}"))?;
            println!(
                "journaling telemetry to {path}{}",
                if append { " (appending)" } else { "" }
            );
            t
        }
        None => Telemetry::disabled(),
    };
    let _flush = FlushGuard(telemetry.clone());

    if let Some(plan) = fault_plan_of(flags)? {
        println!(
            "injecting faults: {:.0}% transient, {:.0}% dropped, {:.0}% spiked, {:.0}% hung",
            100.0 * plan.transient_rate,
            100.0 * plan.drop_rate,
            100.0 * plan.spike_rate,
            100.0 * plan.hang_rate
        );
    }
    let stack = spec.build_stack(&telemetry)?;
    let n_instances = stack.cost.len();

    let frozen: Vec<(usize, racesim_race::Value)> =
        unobserved_dimensions(&stack.space, &stack.suite, &stack.base)
            .into_iter()
            .map(|d| {
                println!(
                    "freezing `{}` at its default: no benchmark observes it (needs {})",
                    stack.space.params()[d.index].name,
                    d.needs
                );
                (d.index, d.value)
            })
            .collect();
    spec.set_frozen(&stack.space, &frozen);
    let mut tuner = spec.tuner(&stack, &telemetry)?;

    // Record the campaign's deterministic inputs so `racesim replay` can
    // rebuild the exact stack from the journal alone. Every segment
    // (fresh or resumed) re-records them; the first occurrence wins on
    // read, so a resume with drifted flags cannot silently rewrite them.
    telemetry.emit(spec.config_event());
    for ev in spec.frozen_events() {
        telemetry.emit(ev);
    }

    if let Some(path) = flags.get("checkpoint") {
        tuner = tuner.with_checkpoint(path);
        println!("checkpointing to {path} after every iteration");
    }
    if let Some(path) = flags.get("resume") {
        tuner = tuner.with_resume(path);
    }

    // Distributed dispatch: shard each iteration's evaluations over a
    // pool of spawned workers. Outcomes are reduced in canonical config
    // order, so everything downstream — eliminations, checkpoints, the
    // journal digest — is bit-identical to the in-process paths.
    if spec.workers > 0 {
        let argv: Vec<String> = match flags.get("worker-cmd") {
            Some(cmd) => {
                let argv: Vec<String> = cmd.split_whitespace().map(str::to_string).collect();
                if argv.is_empty() {
                    return Err("--worker-cmd must name a program".to_string());
                }
                argv
            }
            None => {
                let exe = std::env::current_exe()
                    .map_err(|e| format!("cannot locate this binary for worker spawning: {e}"))?;
                vec![exe.display().to_string(), "worker".to_string()]
            }
        };
        let init = racesim_dist::InitSpec {
            core: spec.core_name().to_string(),
            scale: spec.scale.divisor(),
            faults: spec.fault_profile.clone(),
            fault_seed: spec.fault_seed,
            timeout_ms: spec.timeout_ms.unwrap_or(0),
            ..racesim_dist::InitSpec::default()
        };
        let mut pool_opts = racesim_dist::PoolOptions::new(spec.workers, init);
        pool_opts.request_timeout =
            Duration::from_millis(parse_u64(flags, "worker-timeout", 120_000)?);
        pool_opts.workloads = (0..n_instances)
            .map(|i| stack.cost.name(i).to_string())
            .collect();
        let pool = racesim_dist::WorkerPool::new(
            Box::new(racesim_dist::ProcessLauncher::new(argv)),
            pool_opts,
            Arc::clone(&stack.eval),
            telemetry.clone(),
        );
        tuner = tuner.with_dispatch(Arc::new(pool));
        println!(
            "dispatching evaluations to {} worker process(es)",
            spec.workers
        );
    }

    println!(
        "tuning the {} model over {n_instances} benchmarks (budget {}, seed {:#x}) ...",
        spec.kind, spec.budget, spec.seed
    );
    let result = tuner.try_tune(&stack.space, &*stack.eval, n_instances);

    for w in &result.warnings {
        eprintln!("warning: {w}");
    }
    if result.aborted {
        println!("run aborted before completion (state saved if --checkpoint was given)");
    }
    println!(
        "best cost: {:.2}% mean CPI error ({} evaluations, {} retries, {} configurations failed)",
        result.best_cost, result.evals_used, result.retries, result.failed_configs
    );
    for (instance, reason) in &result.quarantined {
        println!(
            "quarantined instance {instance} ({}): {reason}",
            stack.cost.name(*instance)
        );
    }
    if let Some(path) = flags.get("out") {
        let tuned = racesim_core::params::apply(&stack.space, &result.best, &stack.base);
        std::fs::write(path, config_text::to_text(&tuned))
            .map_err(|e| format!("cannot write {path}: {e}"))?;
        println!("tuned configuration written to {path}");
    }
    telemetry.flush();
    if telemetry.io_errors() > 0 {
        eprintln!(
            "warning: {} journal write(s) failed; the telemetry file is incomplete",
            telemetry.io_errors()
        );
    }
    Ok(())
}

/// Everything `racesim report` shows, digested from one journal. A
/// journal may span several process segments (checkpoint → kill →
/// resume): campaign totals come from the **last** `campaign_end`
/// (those are cumulative across resumes), counters are summed across
/// segments (each process restarts them at zero), and gauges /
/// histograms keep the final segment's values.
#[derive(Debug, Default)]
struct CampaignSummary {
    segments: usize,
    resumes: usize,
    /// core, scale divisor, fault profile, fault seed — from the first
    /// `campaign_config` (journals predating replay support have none).
    config: Option<(String, u64, String, u64)>,
    /// Dimensions pinned before sampling, as (param, value code).
    frozen: Vec<(String, String)>,
    /// seed, budget, instances, params — from the first `campaign_start`.
    start: Option<(u64, usize, usize, usize)>,
    /// best_cost, evals, retries, failed, aborted — last `campaign_end`.
    end: Option<(f64, usize, usize, usize, bool)>,
    /// Wall time summed over every segment.
    wall_us: u64,
    /// iteration → configs entering the race (last occurrence wins: a
    /// killed partial iteration is redone by the resumed segment).
    iter_configs: BTreeMap<usize, usize>,
    /// iteration → (survivors, best cost, evals, blocks, micros).
    iterations: BTreeMap<usize, (usize, f64, usize, usize, u64)>,
    /// workload → (count, cost sum, wall-time sum).
    evals: BTreeMap<String, (u64, f64, u64)>,
    meas_ok: u64,
    meas_failed: u64,
    faults: BTreeMap<String, u64>,
    /// (kind, after_blocks, config) in journal order.
    eliminations: Vec<(String, usize, String)>,
    quarantines: Vec<(String, String)>,
    /// Worker processes spawned (including respawns after failures).
    worker_spawns: u64,
    worker_failures: Vec<(usize, String)>,
    /// worker slot → failure count at quarantine time.
    worker_quarantines: Vec<(usize, u64)>,
    checkpoints: u64,
    /// event name → number of journal entries of that kind.
    events: BTreeMap<String, u64>,
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, u64>,
    /// name → (count, sum, p50, p90, p99, max).
    histograms: BTreeMap<String, (u64, u64, u64, u64, u64, u64)>,
}

impl CampaignSummary {
    fn digest(entries: &[JournalEntry]) -> CampaignSummary {
        let mut s = CampaignSummary::default();
        for e in entries {
            *s.events.entry(e.event.name().to_string()).or_default() += 1;
            match &e.event {
                Event::CampaignStart {
                    seed,
                    budget,
                    n_instances,
                    n_params,
                } => {
                    s.segments += 1;
                    if s.start.is_none() {
                        s.start = Some((*seed, *budget, *n_instances, *n_params));
                    }
                }
                Event::CampaignConfig {
                    core,
                    scale,
                    faults,
                    fault_seed,
                    ..
                } => {
                    if s.config.is_none() {
                        s.config = Some((core.clone(), *scale, faults.clone(), *fault_seed));
                    }
                }
                Event::Frozen { param, code } => {
                    if !s.frozen.iter().any(|(p, _)| p == param) {
                        s.frozen.push((param.clone(), code.clone()));
                    }
                }
                Event::Resume { .. } => s.resumes += 1,
                Event::IterationStart { iteration, configs } => {
                    s.iter_configs.insert(*iteration, *configs);
                }
                Event::IterationEnd {
                    iteration,
                    survivors,
                    best_cost,
                    evals,
                    blocks,
                    micros,
                } => {
                    s.iterations.insert(
                        *iteration,
                        (*survivors, *best_cost, *evals, *blocks, *micros),
                    );
                }
                Event::Evaluation {
                    workload,
                    micros,
                    cost,
                } => {
                    let slot = s.evals.entry(workload.clone()).or_default();
                    slot.0 += 1;
                    slot.1 += cost;
                    slot.2 += micros;
                }
                Event::Measurement { ok, .. } => {
                    if *ok {
                        s.meas_ok += 1;
                    } else {
                        s.meas_failed += 1;
                    }
                }
                Event::Fault { kind, .. } => *s.faults.entry(kind.clone()).or_default() += 1,
                Event::Elimination {
                    config,
                    kind,
                    after_blocks,
                    ..
                } => s
                    .eliminations
                    .push((kind.clone(), *after_blocks, config.clone())),
                Event::Quarantine { instance, reason } => {
                    s.quarantines.push((instance.clone(), reason.clone()));
                }
                Event::WorkerSpawned { .. } => s.worker_spawns += 1,
                Event::WorkerFailed { worker, reason } => {
                    s.worker_failures.push((*worker, reason.clone()));
                }
                Event::WorkerQuarantined { worker, failures } => {
                    s.worker_quarantines.push((*worker, *failures));
                }
                Event::Checkpoint { .. } => s.checkpoints += 1,
                Event::CampaignEnd {
                    best_cost,
                    evals,
                    retries,
                    failed_configs,
                    aborted,
                    micros,
                } => {
                    s.end = Some((*best_cost, *evals, *retries, *failed_configs, *aborted));
                    s.wall_us += micros;
                }
                Event::CounterFinal { name, value } => {
                    *s.counters.entry(name.clone()).or_default() += value;
                }
                Event::GaugeFinal { name, value } => {
                    s.gauges.insert(name.clone(), *value);
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
                    s.histograms
                        .insert(name.clone(), (*count, *sum, *p50, *p90, *p99, *max));
                }
            }
        }
        s
    }

    fn eliminations_by_kind(&self) -> BTreeMap<&str, u64> {
        let mut m: BTreeMap<&str, u64> = BTreeMap::new();
        for (kind, _, _) in &self.eliminations {
            *m.entry(kind).or_default() += 1;
        }
        m
    }

    fn render_text(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let kv = |k: &str, v: String| vec![k.to_string(), v];
        let mut rows = Vec::new();
        if let Some((core, scale, faults, fault_seed)) = &self.config {
            rows.push(kv("core", core.clone()));
            rows.push(kv("scale", format!("1/{scale}")));
            rows.push(kv("faults", format!("{faults} (seed {fault_seed})")));
            rows.push(kv("frozen dims", self.frozen.len().to_string()));
        }
        if let Some((seed, budget, instances, params)) = self.start {
            rows.push(kv("seed", format!("{seed:#x}")));
            rows.push(kv("budget", budget.to_string()));
            rows.push(kv("instances", instances.to_string()));
            rows.push(kv("parameters", params.to_string()));
        }
        rows.push(kv("segments", self.segments.to_string()));
        rows.push(kv("resumes", self.resumes.to_string()));
        rows.push(kv("iterations", self.iterations.len().to_string()));
        rows.push(kv("checkpoints", self.checkpoints.to_string()));
        if let Some((best, evals, retries, failed, aborted)) = self.end {
            rows.push(kv("best cost", format!("{best:.4}")));
            rows.push(kv("evaluations", evals.to_string()));
            rows.push(kv("retries", retries.to_string()));
            rows.push(kv("failed configs", failed.to_string()));
            rows.push(kv("aborted", aborted.to_string()));
        }
        rows.push(kv("quarantined", self.quarantines.len().to_string()));
        let hits = self.counters.get("cache.hits").copied().unwrap_or(0);
        let misses = self.counters.get("cache.misses").copied().unwrap_or(0);
        if hits + misses > 0 {
            rows.push(kv(
                "cache hit rate",
                format!(
                    "{:.1}% ({hits} of {} lookups)",
                    100.0 * hits as f64 / (hits + misses) as f64,
                    hits + misses
                ),
            ));
        }
        rows.push(kv(
            "wall time",
            format!("{:.1} ms", self.wall_us as f64 / 1000.0),
        ));
        let _ = write!(
            out,
            "campaign\n{}",
            report::table(&["field", "value"], &rows)
        );

        if !self.iterations.is_empty() {
            let rows: Vec<Vec<String>> = self
                .iterations
                .iter()
                .map(|(iter, (survivors, best, evals, blocks, micros))| {
                    vec![
                        iter.to_string(),
                        self.iter_configs
                            .get(iter)
                            .map_or("?".to_string(), |c| c.to_string()),
                        survivors.to_string(),
                        blocks.to_string(),
                        evals.to_string(),
                        format!("{best:.4}"),
                        format!("{:.1}", *micros as f64 / 1000.0),
                    ]
                })
                .collect();
            let _ = write!(
                out,
                "\niterations\n{}",
                report::table(
                    &[
                        "iter",
                        "configs",
                        "survivors",
                        "blocks",
                        "evals",
                        "best cost",
                        "ms"
                    ],
                    &rows
                )
            );
        }

        let time_rows: Vec<(String, f64)> = self
            .histograms
            .iter()
            .filter(|(name, _)| name.ends_with("_us"))
            .map(|(name, (_, sum, ..))| (name.clone(), *sum as f64 / 1000.0))
            .collect();
        if !time_rows.is_empty() {
            let _ = write!(
                out,
                "\ntime spent (summed, ms)\n{}",
                report::bar_chart(&time_rows, 40, " ms")
            );
        }

        if !self.evals.is_empty() {
            let cost_rows: Vec<(String, f64)> = self
                .evals
                .iter()
                .map(|(w, (count, cost_sum, _))| {
                    (format!("{w} (x{count})"), cost_sum / (*count).max(1) as f64)
                })
                .collect();
            let _ = write!(
                out,
                "\nmean evaluation cost per workload\n{}",
                report::bar_chart(&cost_rows, 40, "")
            );
        }

        if !self.faults.is_empty() || self.meas_failed > 0 {
            let rows: Vec<Vec<String>> = self
                .faults
                .iter()
                .map(|(kind, n)| vec![kind.clone(), n.to_string()])
                .collect();
            let _ = write!(
                out,
                "\nfaults\n{}",
                report::table(&["kind", "count"], &rows)
            );
            let _ = writeln!(
                out,
                "measurements: {} ok, {} failed",
                self.meas_ok, self.meas_failed
            );
        }

        if !self.eliminations.is_empty() {
            const SHOWN: usize = 15;
            let rows: Vec<Vec<String>> = self
                .eliminations
                .iter()
                .take(SHOWN)
                .map(|(kind, blocks, config)| {
                    vec![kind.clone(), blocks.to_string(), config.clone()]
                })
                .collect();
            let _ = write!(
                out,
                "\neliminations (journal order)\n{}",
                report::table(&["kind", "after blocks", "configuration"], &rows)
            );
            if self.eliminations.len() > SHOWN {
                let _ = writeln!(out, "(+{} more)", self.eliminations.len() - SHOWN);
            }
        }

        for (instance, reason) in &self.quarantines {
            let _ = writeln!(out, "quarantined {instance}: {reason}");
        }

        if self.worker_spawns > 0 {
            let _ = writeln!(
                out,
                "\nworkers: {} spawned, {} failures, {} quarantined",
                self.worker_spawns,
                self.worker_failures.len(),
                self.worker_quarantines.len()
            );
            for (worker, reason) in &self.worker_failures {
                let _ = writeln!(out, "worker {worker} failed: {reason}");
            }
            for (worker, failures) in &self.worker_quarantines {
                let _ = writeln!(out, "worker {worker} quarantined after {failures} failures");
            }
        }

        if !self.events.is_empty() {
            let rows: Vec<Vec<String>> = self
                .events
                .iter()
                .map(|(name, v)| vec![name.clone(), v.to_string()])
                .collect();
            let _ = write!(
                out,
                "\njournal events\n{}",
                report::table(&["event", "count"], &rows)
            );
        }

        if !self.counters.is_empty() {
            let rows: Vec<Vec<String>> = self
                .counters
                .iter()
                .map(|(name, v)| vec![name.clone(), v.to_string()])
                .collect();
            let _ = write!(
                out,
                "\ncounters (summed over segments)\n{}",
                report::table(&["name", "value"], &rows)
            );
        }
        if !self.histograms.is_empty() {
            let rows: Vec<Vec<String>> = self
                .histograms
                .iter()
                .map(|(name, (count, sum, p50, p90, p99, max))| {
                    vec![
                        name.clone(),
                        count.to_string(),
                        p50.to_string(),
                        p90.to_string(),
                        p99.to_string(),
                        max.to_string(),
                        sum.to_string(),
                    ]
                })
                .collect();
            let _ = write!(
                out,
                "\nhistograms (final segment)\n{}",
                report::table(&["name", "count", "p50", "p90", "p99", "max", "sum"], &rows)
            );
        }
        out
    }

    fn render_json(&self) -> String {
        fn map_u64(m: &BTreeMap<String, u64>) -> Value {
            Value::obj(m.iter().map(|(k, v)| (k.as_str(), (*v).into())))
        }
        let mut fields: Vec<(&str, Value)> = Vec::new();
        match &self.config {
            Some((core, scale, faults, fault_seed)) => fields.extend([
                ("core", core.into()),
                ("scale", (*scale).into()),
                ("faults", faults.into()),
                ("fault_seed", (*fault_seed).into()),
            ]),
            None => fields.push(("core", Value::Null)),
        }
        let frozen = self.frozen.iter().map(|(p, c)| (p.as_str(), c.into()));
        fields.push(("frozen", Value::obj(frozen)));
        match self.start {
            Some((seed, budget, instances, params)) => fields.extend([
                ("seed", seed.into()),
                ("budget", budget.into()),
                ("instances", instances.into()),
                ("params", params.into()),
            ]),
            None => fields.push(("seed", Value::Null)),
        }
        fields.extend([
            ("segments", self.segments.into()),
            ("resumes", self.resumes.into()),
            ("iterations", self.iterations.len().into()),
            ("checkpoints", self.checkpoints.into()),
        ]);
        match self.end {
            Some((best, evals, retries, failed, aborted)) => fields.extend([
                ("best_cost", best.into()),
                ("evals", evals.into()),
                ("retries", retries.into()),
                ("failed_configs", failed.into()),
                ("aborted", aborted.into()),
            ]),
            None => fields.push(("best_cost", Value::Null)),
        }
        let elim = self
            .eliminations_by_kind()
            .into_iter()
            .map(|(k, v)| (k, v.into()));
        let evals = self.evals.iter().map(|(w, (count, cost_sum, us))| {
            let stats = Value::obj([
                ("count", (*count).into()),
                ("mean_cost", (cost_sum / (*count).max(1) as f64).into()),
                ("total_us", (*us).into()),
            ]);
            (w.as_str(), stats)
        });
        let hists = self
            .histograms
            .iter()
            .map(|(name, &(count, sum, p50, p90, p99, max))| {
                let stats = [
                    ("count", count),
                    ("sum", sum),
                    ("p50", p50),
                    ("p90", p90),
                    ("p99", p99),
                    ("max", max),
                ];
                (name.as_str(), Value::obj(stats.map(|(k, v)| (k, v.into()))))
            });
        fields.extend([
            ("wall_us", self.wall_us.into()),
            ("quarantined", self.quarantines.len().into()),
            (
                "workers",
                Value::obj([
                    ("spawned", self.worker_spawns.into()),
                    ("failed", self.worker_failures.len().into()),
                    ("quarantined", self.worker_quarantines.len().into()),
                ]),
            ),
            ("eliminations", Value::obj(elim)),
            ("faults", map_u64(&self.faults)),
            (
                "measurements",
                Value::obj([
                    ("ok", self.meas_ok.into()),
                    ("failed", self.meas_failed.into()),
                ]),
            ),
            ("evaluations", Value::obj(evals)),
            ("events", map_u64(&self.events)),
            ("counters", map_u64(&self.counters)),
            ("gauges", map_u64(&self.gauges)),
            ("histograms", Value::obj(hists)),
        ]);
        Value::obj(fields).to_string()
    }
}

/// `racesim report`: render the campaign summary of a telemetry journal
/// written by `tune --telemetry`. Torn lines (a crash mid-write) are
/// reported as warnings; everything before them still renders.
fn cmd_report(journal: &str, flags: &HashMap<String, String>) -> Result<(), String> {
    let path = PathBuf::from(journal);
    let (entries, warnings) =
        read_journal_lossy(&path).map_err(|e| format!("cannot read {journal}: {e}"))?;
    for w in &warnings {
        eprintln!("warning: {journal}: {w}");
    }
    if entries.is_empty() {
        return Err(format!("{journal}: no journal entries"));
    }
    let summary = CampaignSummary::digest(&entries);
    if flags.get("json").is_some() {
        println!("{}", summary.render_json());
    } else {
        print!("{}", summary.render_text());
    }
    Ok(())
}

/// `racesim replay`: re-run the campaign a telemetry journal records —
/// same seed, budget, scale, fault plan and frozen dimensions, rebuilt
/// from the journal alone — and verify that the replay reproduces the
/// recorded outcome bit for bit (survivor sets, elimination order, best
/// costs as f64 bit patterns). Exit code 1 on divergence, with a report
/// pinpointing the first mismatch.
fn cmd_replay(journal: &str, flags: &HashMap<String, String>) -> Result<ExitCode, String> {
    let path = PathBuf::from(journal);
    let (entries, warnings) =
        read_journal_lossy(&path).map_err(|e| format!("cannot read {journal}: {e}"))?;
    for w in &warnings {
        eprintln!("warning: {journal}: {w}");
    }
    if entries.is_empty() {
        return Err(format!("{journal}: no journal entries"));
    }
    let recorded = RecordedCampaign::digest(&entries).map_err(|e| format!("{journal}: {e}"))?;
    let spec = CampaignSpec::from_journal(&entries).map_err(|e| format!("{journal}: {e}"))?;
    eprintln!(
        "replaying the recorded {} campaign: scale 1/{}, budget {}, seed {:#x}, faults {} \
         (seed {}), {} frozen dimension(s) ...",
        spec.core_name(),
        spec.scale.divisor(),
        spec.budget,
        spec.seed,
        spec.fault_profile,
        spec.fault_seed,
        spec.frozen.len()
    );

    let t = Telemetry::in_memory();
    spec.run(&t)?;
    t.flush();
    let text = t.lines().join("\n");
    let (fresh, errors) = parse_journal(&text);
    if let Some((line, e)) = errors.first() {
        return Err(format!("replay journal line {line} unparseable: {e}"));
    }
    let replayed = RecordedCampaign::digest(&fresh).map_err(|e| format!("replay journal: {e}"))?;

    let report = compare(&recorded, &replayed);
    if flags.get("json").is_some() {
        println!("{}", report.render_json());
    } else {
        print!("{}", report.render_text());
    }
    Ok(match report.verdict {
        Verdict::Diverged => ExitCode::FAILURE,
        Verdict::Match | Verdict::PrefixMatch => ExitCode::SUCCESS,
    })
}

fn revision_of(flags: &HashMap<String, String>, key: &str) -> Result<Revision, String> {
    match flags.get(key).map(String::as_str) {
        Some("fixed") | None => Ok(Revision::Fixed),
        Some("initial") => Ok(Revision::Initial),
        Some(v) => Err(format!("unknown --{key} {v:?} (use fixed or initial)")),
    }
}

/// One side of a `racesim diff`: either a fresh capture of a model
/// revision, or a file — a saved CPI baseline or a platform config.
fn diff_side(
    flags: &HashMap<String, String>,
    file_key: &str,
    rev_key: &str,
    kind: CoreKind,
    scale: Scale,
) -> Result<(String, Vec<diff::KernelCpi>), String> {
    if let Some(path) = flags.get(file_key) {
        let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
        let not_baseline = match diff::parse_baseline(&text) {
            Ok((label, records)) => return Ok((format!("{label} ({path})"), records)),
            Err(e) => e,
        };
        // A platform config: simulate the fixed-revision suite on it.
        let platform = config_text::from_text(&text).map_err(|e| {
            format!("{path} is neither a CPI baseline ({not_baseline}) nor a platform config ({e})")
        })?;
        let board = board_for(kind);
        let settings = ValidatorSettings {
            kind,
            revision: Revision::Fixed,
            scale,
            tuner: TunerSettings::default(),
            metric: racesim_core::CostMetric::CpiError,
        };
        let v = Validator::new(&board, settings);
        let records = diff::capture_platform(&platform, v.decoder(), &v.suite())?;
        return Ok((path.clone(), records));
    }
    let revision = revision_of(flags, rev_key)?;
    let label = format!(
        "{}/{}",
        match kind {
            CoreKind::InOrder => "a53",
            CoreKind::OutOfOrder => "a72",
        },
        match revision {
            Revision::Fixed => "fixed",
            Revision::Initial => "initial",
        }
    );
    Ok((label, diff::capture_revision(kind, revision, scale)?))
}

/// `racesim diff`: the differential regression harness. Captures the
/// per-kernel CPI of two model revisions (DESIGN §6b), two platform
/// configs, or a saved baseline vs the current build — integer cycle
/// counters throughout, so "no divergence" means bit-identical CPI —
/// and exits non-zero when any kernel moves beyond `--tolerance`.
fn cmd_diff(flags: &HashMap<String, String>) -> Result<ExitCode, String> {
    let kind = core_of(flags)?;
    let scale = scale_of(flags)?;
    let tolerance: f64 = match flags.get("tolerance") {
        None => 0.0,
        Some(v) => v
            .parse()
            .ok()
            .filter(|t: &f64| t.is_finite() && *t >= 0.0)
            .ok_or_else(|| format!("invalid --tolerance {v:?}"))?,
    };
    let (label_a, a) = diff_side(flags, "a", "revision-a", kind, scale)?;
    let (label_b, b) = diff_side(flags, "b", "revision-b", kind, scale)?;
    if let Some(path) = flags.get("save") {
        std::fs::write(path, diff::render_baseline(&label_b, &b))
            .map_err(|e| format!("cannot write {path}: {e}"))?;
        eprintln!("baseline ({label_b}) written to {path}");
    }
    let d = diff::diff_records(&label_a, &a, &label_b, &b, tolerance);
    if flags.get("json").is_some() {
        println!("{}", d.render_json());
    } else {
        print!("{}", d.render_text());
    }
    Ok(if d.has_divergence() {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}

/// One kernel's self-profile: what the simulator measured about itself.
struct KernelProfile {
    name: String,
    category: String,
    wall_ns: u64,
    instructions: u64,
    cycles: u64,
    snapshot: racesim_telemetry::ProfileSnapshot,
}

impl KernelProfile {
    /// Fraction of the measured wall time covered by the phase tree
    /// (root totals over wall; the simulator's own phases should explain
    /// nearly all of it).
    fn coverage(&self) -> f64 {
        if self.wall_ns == 0 {
            0.0
        } else {
            self.snapshot.total_ns() as f64 / self.wall_ns as f64
        }
    }

    fn inst_per_sec(&self) -> f64 {
        if self.wall_ns == 0 {
            0.0
        } else {
            self.instructions as f64 * 1e9 / self.wall_ns as f64
        }
    }
}

/// `racesim profile`: run kernels through the simulator with the
/// self-profiler attached and show where the wall time goes, per kernel:
/// an indented phase tree (fetch → decode, execute → memory levels and
/// stall attribution), `--json` for the machine-readable form, and
/// `--folded FILE` for a flamegraph.pl-compatible folded-stack dump.
fn cmd_profile(flags: &HashMap<String, String>) -> Result<(), String> {
    let scale = scale_of(flags)?;
    let platform = platform_of(flags)?;
    let mut suite = match flags.get("suite").map(String::as_str) {
        None | Some("micro") => microbench_suite(scale),
        Some("spec") => spec_suite(scale),
        Some("all") => {
            let mut v = microbench_suite(scale);
            v.extend(spec_suite(scale));
            v
        }
        Some(v) => return Err(format!("unknown suite {v:?} (use micro, spec or all)")),
    };
    if let Some(name) = flags.get("workload") {
        suite.retain(|w| &w.name == name);
        if suite.is_empty() {
            return Err(format!("unknown workload {name:?} (see `racesim list`)"));
        }
    }

    let mut profiles = Vec::new();
    for w in &suite {
        // Recorded once, compact, outside the timed region.
        let trace = w.compact_trace().map_err(|e| format!("{}: {e}", w.name))?;
        // A fresh profiler per kernel keeps the trees comparable; two
        // runs, keeping the faster (less scheduler noise in the wall
        // measurement). The wall clock starts after simulator
        // construction, so the coverage ratio compares the phase tree
        // against the run it actually describes.
        let mut best: Option<KernelProfile> = None;
        for _ in 0..2 {
            let profiler = racesim_telemetry::Profiler::enabled();
            let sim = Simulator::new(platform.clone()).with_profiler(profiler.clone());
            let t0 = std::time::Instant::now();
            let stats = sim
                .run_compact(&trace)
                .map_err(|e| format!("{}: {e}", w.name))?;
            let wall_ns = t0.elapsed().as_nanos() as u64;
            if best.as_ref().is_none_or(|b| wall_ns < b.wall_ns) {
                best = Some(KernelProfile {
                    name: w.name.clone(),
                    category: w.category.to_string(),
                    wall_ns,
                    instructions: stats.core.instructions,
                    cycles: stats.core.cycles,
                    snapshot: profiler.snapshot(),
                });
            }
        }
        profiles.push(best.expect("at least one run"));
    }

    if let Some(path) = flags.get("folded") {
        let mut out = String::new();
        for p in &profiles {
            for line in p.snapshot.render_folded().lines() {
                out.push_str(&p.name);
                out.push(';');
                out.push_str(line);
                out.push('\n');
            }
        }
        std::fs::write(path, out).map_err(|e| format!("cannot write {path}: {e}"))?;
        eprintln!("folded stacks written to {path}");
    }

    if flags.get("json").is_some() {
        let kernels = profiles.iter().map(|p| {
            Value::obj([
                ("name", p.name.as_str().into()),
                ("category", p.category.as_str().into()),
                ("wall_ns", p.wall_ns.into()),
                ("instructions", p.instructions.into()),
                ("cycles", p.cycles.into()),
                ("coverage", p.coverage().into()),
                ("profile", p.snapshot.to_json()),
            ])
        });
        let doc = Value::obj([
            ("schema_version", Value::from(1u64)),
            ("platform", platform.name.as_str().into()),
            ("kernels", Value::arr(kernels)),
        ]);
        println!("{doc}");
    } else {
        println!("platform: {}", platform.name);
        for p in &profiles {
            println!(
                "\n== {} ({}) ==  wall {:.2} ms  {:.1} Minst/s  coverage {:.1}%",
                p.name,
                p.category,
                p.wall_ns as f64 / 1e6,
                p.inst_per_sec() / 1e6,
                100.0 * p.coverage()
            );
            print!("{}", p.snapshot.render_text());
        }
    }
    Ok(())
}

/// `racesim lint`: the static-analysis gate. Checks the shipped platform
/// presets, the tuning parameter spaces for both cores, and every
/// micro-benchmark kernel — all before a single cycle is simulated.
/// Exits non-zero when any Error-severity diagnostic is found (and, with
/// `--deny-warnings`, when any warning is).
fn cmd_lint(flags: &HashMap<String, String>) -> Result<ExitCode, String> {
    let revision = revision_of(flags, "revision")?;
    let scale = scale_of(flags)?;
    let mut report = racesim_analyzer::Report::new();

    // 1. Platform invariants on the shipped presets (or --platform FILE).
    match flags.get("platform") {
        Some(_) => report.extend(racesim_analyzer::platform::check(&platform_of(flags)?)),
        None => {
            for (_, _, base) in cores() {
                report.extend(racesim_analyzer::platform::check(&base));
            }
        }
    }

    // 2. Parameter-space lints for both cores.
    for (label, kind, base) in cores() {
        let space = racesim_core::params::build_space(kind, revision);
        let anchors = [
            ("default", space.default_configuration()),
            ("best-guess", racesim_core::params::best_guess(&space, kind)),
        ];
        let apply =
            |cfg: &racesim_race::Configuration| racesim_core::params::apply(&space, cfg, &base);
        let mut diags = racesim_analyzer::param::check_space(&space);
        diags.extend(racesim_analyzer::param::check_model(
            &space, &anchors, &apply,
        ));
        for mut d in diags {
            d.context
                .insert(0, ("space".to_string(), label.to_string()));
            report.push(d);
        }
    }

    // 3. Kernel static analysis over the whole micro-benchmark suite.
    let suite = match revision {
        Revision::Initial => microbench_suite(scale),
        Revision::Fixed => racesim_kernels::microbench_suite_initialized(scale),
    };
    for w in &suite {
        for mut d in racesim_analyzer::kernel::check(&w.program) {
            d.context.insert(0, ("kernel".to_string(), w.name.clone()));
            report.push(d);
        }
    }

    // 4. Measurement noise vs the race's statistical resolution, per
    //    board, at the race settings a default tune would use.
    let race = RaceSettings::default();
    for (label, board) in [
        ("a53", ReferenceBoard::firefly_a53()),
        ("a72", ReferenceBoard::firefly_a72()),
    ] {
        report.extend(racesim_analyzer::effects::check(
            label,
            board.effects(),
            &race,
        ));
    }

    // 5. Whole-campaign analysis (--suite): kernel IR lints, the
    //    parameter-coverage matrix per core space, and the determinism
    //    audit.
    let mut sections: Vec<(&str, Value)> = Vec::new();
    let mut coverage_text = String::new();
    if flags.get("suite").is_some() {
        let mut all = suite.clone();
        all.extend(spec_suite(scale));

        let mut profiles = Vec::new();
        for w in &all {
            for mut d in racesim_analyzer::ir::check(&w.program) {
                d.context.insert(0, ("kernel".to_string(), w.name.clone()));
                report.push(d);
            }
            profiles.push(racesim_analyzer::ir::profile(&w.name, &w.program));
        }

        let mut coverage_json = Vec::new();
        for (label, kind, base) in cores() {
            let space = racesim_core::params::build_space(kind, revision);
            let matrix =
                racesim_analyzer::coverage::CoverageMatrix::build(&space, &profiles, &base);
            let apply =
                |cfg: &racesim_race::Configuration| racesim_core::params::apply(&space, cfg, &base);
            for mut d in racesim_analyzer::coverage::check_suite(&space, &matrix, &apply) {
                d.context
                    .insert(0, ("space".to_string(), label.to_string()));
                report.push(d);
            }
            coverage_text.push_str(&format!(
                "\nparameter coverage [{label}]:\n{}",
                matrix.render_text()
            ));
            coverage_json.push((label, matrix.to_json()));
        }
        sections.push(("coverage", Value::obj(coverage_json)));

        let build = || racesim_core::params::build_space(CoreKind::InOrder, revision);
        for mut d in racesim_analyzer::determinism::check(&build) {
            d.context
                .insert(0, ("audit".to_string(), "determinism".to_string()));
            report.push(d);
        }
    }

    report.sort();
    if flags.get("json").is_some() {
        println!("{}", report.render_json_with(&sections));
    } else {
        print!("{}", report.render_text());
        print!("{coverage_text}");
    }
    let deny_warnings = flags.get("deny-warnings").is_some();
    let denied = report.has_errors()
        || (deny_warnings && report.count(racesim_analyzer::Severity::Warn) > 0);
    Ok(if denied {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = args.split_first() else {
        eprint!("{USAGE}");
        return ExitCode::FAILURE;
    };
    run(cmd, rest).unwrap_or_else(|e| {
        eprintln!("error: {e}");
        ExitCode::FAILURE
    })
}

/// Runs one command on the arguments that follow its name.
fn run(cmd: &str, args: &[String]) -> Result<ExitCode, String> {
    // `report` and `replay` take one positional operand (the journal
    // path); every other command is flags-only.
    let (journal, flag_args) = match args.split_first() {
        Some((j, rest)) if (cmd == "report" || cmd == "replay") && !j.starts_with("--") => {
            (Some(j.as_str()), rest)
        }
        _ => (None, args),
    };
    let cmd = match cmd {
        "--help" | "-h" => "help",
        c => c,
    };
    let flags = parse_flags(cmd, flag_args)?;
    let journal = || {
        journal.ok_or_else(|| format!("{cmd} needs a journal path: racesim {cmd} <FILE> [--json]"))
    };
    let done = |r: Result<(), String>| r.map(|()| ExitCode::SUCCESS);
    match cmd {
        "list" => done(cmd_list(&flags)),
        "simulate" => done(cmd_simulate(&flags)),
        "measure" => done(cmd_measure(&flags)),
        "probe" => done(cmd_probe(&flags)),
        "config" => done(cmd_config(&flags)),
        "validate" => done(cmd_validate(&flags)),
        "tune" => done(cmd_tune(&flags)),
        "worker" => done(cmd_worker(&flags)),
        "report" => done(cmd_report(journal()?, &flags)),
        "replay" => cmd_replay(journal()?, &flags),
        "diff" => cmd_diff(&flags),
        "profile" => done(cmd_profile(&flags)),
        "lint" => cmd_lint(&flags),
        "help" => {
            print!("{USAGE}");
            Ok(ExitCode::SUCCESS)
        }
        other => unreachable!("{other} is in COMMANDS but has no handler"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flag_parsing() {
        let args: Vec<String> = ["--scale", "1024", "--workload", "MD"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let f = parse_flags("simulate", &args).unwrap();
        assert_eq!(f.get("scale").unwrap(), "1024");
        assert_eq!(f.get("workload").unwrap(), "MD");
        assert!(parse_flags("simulate", &["--workload".to_string()]).is_err());
        assert!(parse_flags("simulate", &["positional".to_string()]).is_err());
        // `--suite` is boolean for lint, value-taking for profile.
        let args = vec!["--suite".to_string()];
        assert_eq!(
            parse_flags("lint", &args).unwrap().get("suite"),
            Some(&"true".to_string())
        );
        assert!(parse_flags("profile", &args).is_err());
        // A flag the command never reads is refused, not ignored.
        let args = vec!["--json".to_string()];
        assert!(parse_flags("report", &args).is_ok());
        assert_eq!(
            parse_flags("validate", &args).unwrap_err(),
            "unknown flag --json for validate"
        );
        assert!(parse_flags("frobnicate", &[]).is_err());
    }

    #[test]
    fn flush_guard_flushes_on_early_exit() {
        let path =
            std::env::temp_dir().join(format!("racesim_flush_guard_{}.jsonl", std::process::id()));
        let _ = std::fs::remove_file(&path);
        // Simulate an error path: the guard drops before any explicit
        // flush could run, and the journal must still be complete.
        let early_return = || -> Result<(), String> {
            let telemetry = Telemetry::to_file(&path, false).map_err(|e| e.to_string())?;
            let _flush = FlushGuard(telemetry.clone());
            telemetry.emit(Event::CampaignStart {
                seed: 1,
                budget: 2,
                n_instances: 3,
                n_params: 4,
            });
            Err("simulated failure".to_string())
        };
        assert!(early_return().is_err());
        let (entries, errors) = read_journal_lossy(&path).expect("journal readable");
        assert!(errors.is_empty(), "no torn lines: {errors:?}");
        assert_eq!(entries.len(), 1, "the buffered event was flushed");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn workload_lookup_and_platform_selection() {
        let mut flags = HashMap::new();
        flags.insert("workload".to_string(), "MD".to_string());
        let w = find_workload(&flags, Scale::TINY).unwrap();
        assert_eq!(w.name, "MD");
        flags.insert("workload".to_string(), "nope".to_string());
        assert!(find_workload(&flags, Scale::TINY).is_err());

        let mut flags = HashMap::new();
        flags.insert("platform".to_string(), "a72".to_string());
        assert_eq!(platform_of(&flags).unwrap().core.kind, CoreKind::OutOfOrder);
    }

    #[test]
    fn config_files_roundtrip_through_the_cli_path() {
        let dir = std::env::temp_dir().join("racesim_cli_test.cfg");
        std::fs::write(&dir, config_text::to_text(&Platform::a72_like())).unwrap();
        let mut flags = HashMap::new();
        flags.insert("platform".to_string(), dir.display().to_string());
        let p = platform_of(&flags).unwrap();
        assert_eq!(p, Platform::a72_like());
        let _ = std::fs::remove_file(&dir);
    }
}
