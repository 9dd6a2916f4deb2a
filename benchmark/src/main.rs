//! `racesim-benchmark`: times the campaigns `racesim tune` runs, end to
//! end with tracing off and layer by layer in a separate traced run.
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- --seed 7
//!     the suite: every workload, round-robin, for 5 rounds, then one
//!     traced round; prints every metric and writes a results file
//! cargo run ... -- --workload a53-long --seed 3 --seconds 20 --trace 0
//!     one run of one workload; the last line printed is its JSON result
//! cargo run ... -- compare A.json B.json
//!     end-to-end verdicts of results file B against results file A
//! ```
//!
//! See `README.md` for the workloads, the metrics and what each
//! per-layer metric is expected to move.

mod campaign;
mod host;
mod report;
mod stats;
mod traced;
mod untraced;
mod workload;

use campaign::Runner;
use report::{Row, RunReport, END_TO_END, FAILED_PCT, PER_LAYER};
use stats::Summary;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use workload::{Workload, WORKLOADS};

const USAGE: &str = "\
usage: racesim-benchmark [--workload NAME] [--seed N] [--seconds N] [--trace 0|1]
                         [--out FILE]
       racesim-benchmark compare A.json B.json

With --workload, one run of that workload (--trace 1 for the traced run);
without it, the suite: 5 rounds of every workload, then one traced round,
written to --out (default benchmark/results/<commit>-seed<N>.json).
Workloads: a53-long, a72-long, a53-short, a53-dist2.";

/// Untraced rounds of the suite: the median and quartiles of each
/// end-to-end metric are taken over this many runs.
const ROUNDS: usize = 5;

/// Metric values per `(workload, metric)`, one per run.
type Values = BTreeMap<(&'static str, String), Vec<f64>>;

#[derive(Debug)]
struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: Option<PathBuf>,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 7,
        seconds: 20.0,
        trace: false,
        out: None,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value"))?
            .as_str();
        let bad = || format!("invalid {flag} {value:?}");
        match flag.as_str() {
            "--workload" => {
                args.workload = Some(
                    Workload::by_name(value)
                        .ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|_| bad())?;
                if !(args.seconds > 0.0 && args.seconds <= 3600.0) {
                    return Err(bad());
                }
            }
            "--trace" => {
                args.trace = match value {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            "--out" => args.out = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    Ok(args)
}

/// The repository checkout this crate sits in.
fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the benchmark crate sits inside the repository")
        .to_path_buf()
}

/// Builds `racesim-cli` from the checkout (a no-op when it is current)
/// and returns the target directory and the `racesim` binary in it.
fn build_racesim(root: &Path) -> Result<(PathBuf, PathBuf), String> {
    let cargo = std::env::var_os("CARGO").unwrap_or_else(|| "cargo".into());
    let status = Command::new(cargo)
        .args(["build", "--release", "--quiet", "--package", "racesim-cli"])
        .current_dir(root)
        .stdout(Stdio::null())
        .status()
        .map_err(|e| format!("cannot run cargo: {e}"))?;
    if !status.success() {
        return Err(format!("building racesim-cli failed ({status})"));
    }
    // Cargo resolves a relative CARGO_TARGET_DIR against its working
    // directory, which was `root`.
    let target = root.join(std::env::var_os("CARGO_TARGET_DIR").unwrap_or_else(|| "target".into()));
    let bin = target.join("release").join("racesim");
    if !bin.is_file() {
        return Err(format!("no racesim binary at {}", bin.display()));
    }
    Ok((target, bin))
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("compare") {
        return compare_files(&argv[1..]);
    }
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let root = repo_root();
    let runner = build_racesim(&root).and_then(|(target, bin)| {
        Runner::new(
            bin,
            target.join(format!("racesim-benchmark-{}", std::process::id())),
        )
    });
    let runner = match runner {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let ok = match args.workload {
        Some(w) => single(&runner, &w, &args),
        None => suite(&runner, &root, &args),
    };
    runner.remove_scratch();
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// One run of one workload: the metrics by name, then the JSON result
/// as the last line.
fn single(runner: &Runner, w: &Workload, args: &Args) -> bool {
    let rep = if args.trace {
        traced::run(runner, w, args.seed)
    } else {
        untraced::run(runner, w, args.seed, args.seconds)
    };
    let failed_pct = (FAILED_PCT.name.to_string(), rep.failed_pct());
    for (name, value) in rep.metrics.iter().chain([&failed_pct]) {
        let unit = report::metric(name).map_or("", |m| m.unit);
        println!("{:<10} {name:<32} {value:>14.6} {unit}", w.name);
    }
    for e in &rep.errors {
        eprintln!("check failed: {e}");
    }
    println!("{}", rep.result_line());
    rep.correct()
}

/// The suite: [`ROUNDS`] untraced rounds of every workload round-robin,
/// then one traced round. Checks that the exact metrics (bound 0) and
/// every campaign outcome repeat across rounds, prints every metric with
/// its median and quartiles, and writes the results file. Fails when an
/// end-to-end metric's quartile spread exceeds its bound, since such a
/// file cannot judge that pair.
fn suite(runner: &Runner, root: &Path, args: &Args) -> bool {
    let mut values = Values::new();
    let mut outcomes: BTreeMap<(&str, u64), (String, u64)> = BTreeMap::new();
    let mut errors: Vec<String> = Vec::new();
    let (mut attempted, mut failed) = (0, 0);
    let mut absorb = |w: &Workload, rep: RunReport, values: &mut Values| {
        attempted += rep.attempted;
        failed += rep.failed;
        errors.extend(rep.errors.iter().map(|e| format!("{}: {e}", w.name)));
        for (seed, cost, evals) in rep.outcomes {
            let seen = outcomes
                .entry((w.name, seed))
                .or_insert((cost.clone(), evals));
            if *seen != (cost.clone(), evals) {
                errors.push(format!(
                    "{}: campaign seed {seed} ended at {cost}% after {evals} evaluations, \
                     earlier at {}% after {}",
                    w.name, seen.0, seen.1
                ));
            }
        }
        for (name, v) in rep.metrics {
            values.entry((w.name, name)).or_default().push(v);
        }
    };
    for round in 1..=ROUNDS {
        for w in &WORKLOADS {
            eprintln!("round {round}/{ROUNDS}: {}", w.name);
            let mut rep = untraced::run(runner, w, args.seed, args.seconds);
            rep.put(FAILED_PCT.name, rep.failed_pct());
            absorb(w, rep, &mut values);
        }
    }
    let mut layers = Values::new();
    for w in &WORKLOADS {
        eprintln!("traced round: {}", w.name);
        absorb(w, traced::run(runner, w, args.seed), &mut layers);
    }
    for ((workload, name), v) in &values {
        let exact = report::metric(name).and_then(|m| m.bound) == Some(0.0);
        if exact && v.iter().any(|x| x.to_bits() != v[0].to_bits()) {
            errors.push(format!("{workload}: {name} differs across rounds: {v:?}"));
        }
    }

    let mut rows = Vec::new();
    for w in &WORKLOADS {
        for m in END_TO_END.iter().chain([&FAILED_PCT]).chain(&PER_LAYER) {
            let table = if m.bound.is_some() { &values } else { &layers };
            if let Some(v) = table.get(&(w.name, m.name.to_string())) {
                rows.push(Row {
                    workload: w.name.to_string(),
                    metric: m.name.to_string(),
                    unit: m.unit.to_string(),
                    better: m.better,
                    bound: m.bound,
                    summary: Summary::of(v),
                });
            }
        }
    }
    println!(
        "{:<10} {:<32} {:>14} {:>14} {:>14} {:>3}  unit",
        "workload", "metric", "median", "q1", "q3", "n"
    );
    for r in &rows {
        let s = &r.summary;
        println!(
            "{:<10} {:<32} {:>14.6} {:>14.6} {:>14.6} {:>3}  {}",
            r.workload, r.metric, s.median, s.q1, s.q3, s.n, r.unit
        );
        if let Some(bound) = r.bound.filter(|&b| s.spread() > b) {
            errors.push(format!(
                "{}: {} quartile spread {:.1}% exceeds its {:.1}% bound, so `compare` \
                 cannot judge this pair against this file",
                r.workload,
                r.metric,
                100.0 * s.spread(),
                100.0 * bound
            ));
        }
    }

    let commit = git_commit(root);
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let header = [
        ("commit", commit.clone()),
        ("nproc", nproc.to_string()),
        ("seed", args.seed.to_string()),
        ("rounds", ROUNDS.to_string()),
        ("seconds", args.seconds.to_string()),
        ("attempted", attempted.to_string()),
        ("failed", failed.to_string()),
    ];
    let out = args.out.clone().unwrap_or_else(|| {
        let short: String = commit.chars().take(12).collect();
        root.join("benchmark")
            .join("results")
            .join(format!("{short}-seed{}.json", args.seed))
    });
    let written = out
        .parent()
        .map_or(Ok(()), std::fs::create_dir_all)
        .and_then(|()| std::fs::write(&out, report::render_results(&header, &rows)));
    match written {
        Ok(()) => println!("results written to {} (nproc {nproc})", out.display()),
        Err(e) => errors.push(format!("cannot write {}: {e}", out.display())),
    }
    println!("evaluations: {attempted} attempted, {failed} failed");
    for e in &errors {
        eprintln!("check failed: {e}");
    }
    errors.is_empty() && failed == 0
}

/// The checked-out commit, or `unknown` outside a git repository.
fn git_commit(root: &Path) -> String {
    Command::new("git")
        .args(["rev-parse", "HEAD"])
        .current_dir(root)
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".to_string(), |s| s.trim().to_string())
}

/// `compare A.json B.json`: one verdict per end-to-end (workload, metric)
/// pair; exits non-zero when any pair regressed.
fn compare_files(paths: &[String]) -> ExitCode {
    let [a, b] = paths else {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    };
    let load = |p: &String| {
        std::fs::read_to_string(p)
            .map_err(|e| format!("cannot read {p}: {e}"))
            .and_then(|t| report::parse_results(&t).map_err(|e| format!("{p}: {e}")))
    };
    let ((ha, ra), (hb, rb)) = match (load(a), load(b)) {
        (Ok(x), Ok(y)) => (x, y),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let commit = |h: &BTreeMap<String, String>| h.get("commit").cloned().unwrap_or_default();
    println!("A = {a} ({})\nB = {b} ({})", commit(&ha), commit(&hb));
    println!(
        "{:<10} {:<22} {:>12} {:>12} {:>8} {:>7}  verdict",
        "workload", "metric", "A median", "B median", "worse", "bound"
    );
    let verdicts = report::compare(&ra, &rb);
    for (x, y, v) in &verdicts {
        let worse = stats::worsening(x.summary.median, y.summary.median, x.better);
        println!(
            "{:<10} {:<22} {:>12.6} {:>12.6} {:>+7.1}% {:>6.1}%  {v}  (n={}/{}, {})",
            x.workload,
            x.metric,
            x.summary.median,
            y.summary.median,
            100.0 * worse,
            100.0 * x.bound.unwrap_or(0.0),
            x.summary.n,
            y.summary.n,
            x.unit
        );
    }
    if verdicts
        .iter()
        .any(|(_, _, v)| *v == stats::Verdict::Regressed)
    {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn parses_a_single_run_command_line() {
        let a = parse_args(&argv(
            "--workload a53-dist2 --seed 3 --seconds 25 --trace 1",
        ))
        .unwrap();
        assert_eq!(a.workload.map(|w| w.name), Some("a53-dist2"));
        assert_eq!((a.seed, a.seconds, a.trace), (3, 25.0, true));
        let d = parse_args(&[]).unwrap();
        assert!(d.workload.is_none() && !d.trace);
    }

    #[test]
    fn rejects_bad_command_lines() {
        for bad in [
            "--workload nope",
            "--seed",
            "--seed x",
            "--seconds 0",
            "--trace 2",
            "--frobnicate 1",
        ] {
            assert!(parse_args(&argv(bad)).is_err(), "{bad:?} must be rejected");
        }
    }
}
