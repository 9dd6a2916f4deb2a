//! One `racesim tune` campaign run as a child process with tracing off:
//! timed from spawn to exit, its set-up line timestamped, its peak RSS
//! polled from `/proc`, and its printed summary and `--out` config
//! checked.

use crate::workload::Workload;
use racesim_sim::config_text;
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// How often peak RSS is sampled. `VmHWM` is a high-water mark, so a
/// sample only misses growth in the last interval before exit.
const RSS_POLL: Duration = Duration::from_millis(5);

/// A campaign still running after this long is killed and counted as
/// failed. The longest workload finishes in about 7 s; the deadline keeps
/// a run whose campaigns all hang (reference, three timed, rerun) under
/// 3 minutes.
const DEADLINE: Duration = Duration::from_secs(30);

/// What `racesim tune` prints when it finishes.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    /// The best mean CPI error exactly as printed (two decimals).
    pub best_cost_text: String,
    /// The same, as a number.
    pub best_cost: f64,
    /// Fresh evaluations used.
    pub evals: u64,
    /// Transient-fault retries.
    pub retries: u64,
    /// Configurations eliminated because their evaluation failed.
    pub failed_configs: u64,
    /// Instances quarantined as unmeasurable.
    pub quarantined: u64,
}

/// Parses the summary `racesim tune` prints on standard output:
///
/// ```text
/// best cost: 16.17% mean CPI error (2252 evaluations, 0 retries, 0 configurations failed)
/// quarantined instance 3 (MD): measuring MD: ...
/// ```
///
/// # Errors
///
/// Fails when the summary line is missing or malformed, or the run says
/// it was aborted.
pub fn parse_summary(stdout: &str) -> Result<Summary, String> {
    if stdout.lines().any(|l| l.starts_with("run aborted")) {
        return Err("campaign reports it was aborted".to_string());
    }
    let line = stdout
        .lines()
        .find_map(|l| l.strip_prefix("best cost: "))
        .ok_or("no `best cost:` summary line")?;
    let bad = || format!("malformed summary line {line:?}");
    let (cost, rest) = line.split_once("% mean CPI error (").ok_or_else(bad)?;
    let counts: Vec<&str> = rest
        .strip_suffix(')')
        .ok_or_else(bad)?
        .split(", ")
        .collect();
    let count = |i: usize, suffix: &str| -> Result<u64, String> {
        counts
            .get(i)
            .and_then(|c| c.strip_suffix(suffix))
            .and_then(|n| n.parse().ok())
            .ok_or_else(bad)
    };
    let best_cost: f64 = cost.parse().map_err(|_| bad())?;
    if counts.len() != 3 || !best_cost.is_finite() {
        return Err(bad());
    }
    Ok(Summary {
        best_cost_text: cost.to_string(),
        best_cost,
        evals: count(0, " evaluations")?,
        retries: count(1, " retries")?,
        failed_configs: count(2, " configurations failed")?,
        quarantined: stdout
            .lines()
            .filter(|l| l.starts_with("quarantined instance "))
            .count() as u64,
    })
}

/// The `VmHWM` (peak resident set) of a `/proc/<pid>/status` text, in kB.
pub fn parse_vmhwm_kb(status: &str) -> Option<u64> {
    let value = status.lines().find_map(|l| l.strip_prefix("VmHWM:"))?;
    value.trim().strip_suffix("kB")?.trim().parse().ok()
}

/// The parent pid of a `/proc/<pid>/stat` line. The command name sits in
/// parentheses and may itself contain spaces or parentheses, so fields
/// are counted from the last `)`.
pub fn parse_ppid(stat: &str) -> Option<u32> {
    let rest = &stat[stat.rfind(')')? + 1..];
    rest.split_whitespace().nth(1)?.parse().ok()
}

fn vmhwm_kb(pid: u32) -> Option<u64> {
    parse_vmhwm_kb(&std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?)
}

/// Peak-RSS sampler for a campaign process and, for distributed
/// campaigns, the worker processes it spawns.
struct RssPoll {
    pid: u32,
    with_children: bool,
    peaks: BTreeMap<u32, u64>,
}

impl RssPoll {
    fn sample(&mut self) {
        let mut pids = vec![self.pid];
        if self.with_children {
            pids.extend(children_of(self.pid));
        }
        for pid in pids {
            if let Some(kb) = vmhwm_kb(pid) {
                let peak = self.peaks.entry(pid).or_default();
                *peak = (*peak).max(kb);
            }
        }
    }

    /// Sum of every sampled process's last known high-water mark, in MB.
    fn total_mb(&self) -> f64 {
        self.peaks.values().sum::<u64>() as f64 / 1024.0
    }
}

fn children_of(pid: u32) -> Vec<u32> {
    let Ok(entries) = std::fs::read_dir("/proc") else {
        return Vec::new();
    };
    entries
        .filter_map(|e| e.ok()?.file_name().to_str()?.parse::<u32>().ok())
        .filter(|&p| {
            std::fs::read_to_string(format!("/proc/{p}/stat"))
                .ok()
                .and_then(|s| parse_ppid(&s))
                == Some(pid)
        })
        .collect()
}

/// One finished, checked campaign.
#[derive(Debug, Clone)]
pub struct Campaign {
    /// Spawn to exit.
    pub wall_s: f64,
    /// Spawn to the `tuning the … model over` line.
    pub setup_s: f64,
    /// Peak RSS, summed over the campaign process and its workers.
    pub peak_rss_mb: f64,
    /// The printed summary.
    pub summary: Summary,
    /// The `--out` tuned configuration, as written.
    pub tuned_text: String,
}

impl Campaign {
    /// Evaluations per second of racing (wall minus set-up).
    pub fn evals_per_s(&self) -> f64 {
        self.summary.evals as f64 / (self.wall_s - self.setup_s)
    }

    /// Whether two campaigns reached the same outcome: the same summary
    /// and the same tuned configuration, byte for byte.
    pub fn same_outcome(&self, other: &Campaign) -> bool {
        self.summary == other.summary && self.tuned_text == other.tuned_text
    }
}

/// Runs campaigns of the `racesim` binary at `bin`, writing their tuned
/// configurations into `scratch`.
#[derive(Debug)]
pub struct Runner {
    /// The `racesim` binary.
    pub bin: PathBuf,
    scratch: PathBuf,
}

impl Runner {
    /// A runner using `scratch` (created if missing) for `--out` files.
    ///
    /// # Errors
    ///
    /// Fails when the scratch directory cannot be created.
    pub fn new(bin: PathBuf, scratch: PathBuf) -> Result<Runner, String> {
        std::fs::create_dir_all(&scratch)
            .map_err(|e| format!("cannot create {}: {e}", scratch.display()))?;
        Ok(Runner { bin, scratch })
    }

    /// Deletes the scratch directory and everything in it.
    pub fn remove_scratch(&self) {
        let _ = std::fs::remove_dir_all(&self.scratch);
    }

    /// Runs one campaign of `w` at tuner `seed` with `workers` worker
    /// processes, and checks it: exit status 0, a parseable summary, a
    /// set-up line, and an `--out` file that parses back as a platform.
    ///
    /// # Errors
    ///
    /// Describes the first check that failed.
    pub fn run(&self, w: &Workload, seed: u64, workers: usize) -> Result<Campaign, String> {
        let out = self.scratch.join("tuned.cfg");
        let _ = std::fs::remove_file(&out);
        let args = w.tune_args(seed, workers, &out.display().to_string());

        let start = Instant::now();
        let mut child = Command::new(&self.bin)
            .args(&args)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("cannot spawn {}: {e}", self.bin.display()))?;
        let stdout = child.stdout.take().expect("stdout is piped");
        let (tx, rx) = mpsc::channel();
        // Timestamps each line as it arrives; end of file on the pipe is
        // the campaign's exit, so the poll below can sleep between samples
        // without coarsening the wall time.
        let reader = std::thread::spawn(move || {
            for line in BufReader::new(stdout).lines() {
                let Ok(line) = line else { break };
                if tx.send((start.elapsed(), line)).is_err() {
                    break;
                }
            }
            start.elapsed()
        });

        let mut rss = RssPoll {
            pid: child.id(),
            with_children: workers > 0,
            peaks: BTreeMap::new(),
        };
        let status = loop {
            match child.try_wait() {
                Ok(Some(status)) => break Ok(status),
                Ok(None) if start.elapsed() > DEADLINE => {
                    let _ = child.kill();
                    let _ = child.wait();
                    break Err(format!("killed after {}s", DEADLINE.as_secs()));
                }
                Ok(None) => {}
                Err(e) => {
                    let _ = child.kill();
                    let _ = child.wait();
                    break Err(format!("wait failed: {e}"));
                }
            }
            rss.sample();
            std::thread::sleep(RSS_POLL);
        };
        let wall_s = reader
            .join()
            .map_err(|_| "stdout reader panicked")?
            .as_secs_f64();
        let lines: Vec<(Duration, String)> = rx.try_iter().collect();
        let status = status?;
        if !status.success() {
            return Err(format!("racesim {} exited with {status}", args.join(" ")));
        }

        let text: String = lines.iter().map(|(_, l)| format!("{l}\n")).collect();
        let summary = parse_summary(&text)?;
        let setup_s = lines
            .iter()
            .find(|(_, l)| l.starts_with("tuning the "))
            .map(|(t, _)| t.as_secs_f64())
            .ok_or("no `tuning the … model` line")?;
        let tuned_text = read_config(&out)?;
        Ok(Campaign {
            wall_s,
            setup_s,
            peak_rss_mb: rss.total_mb(),
            summary,
            tuned_text,
        })
    }
}

/// Reads an `--out` file and checks it parses back as a platform.
fn read_config(path: &Path) -> Result<String, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("no tuned config at {}: {e}", path.display()))?;
    config_text::from_text(&text).map_err(|e| format!("tuned config does not re-parse: {e}"))?;
    Ok(text)
}

#[cfg(test)]
mod tests {
    use super::*;

    const CLEAN: &str = "\
freezing `lat.int_div` at its default: no benchmark observes it (needs integer divide site(s))
tuning the in-order model over 40 benchmarks (budget 4000, seed 0x7) ...
best cost: 16.17% mean CPI error (2252 evaluations, 0 retries, 0 configurations failed)
tuned configuration written to x.cfg
";

    #[test]
    fn parses_a_clean_summary() {
        let s = parse_summary(CLEAN).expect("parses");
        assert_eq!(s.best_cost_text, "16.17");
        assert_eq!(s.best_cost, 16.17);
        assert_eq!(
            (s.evals, s.retries, s.failed_configs, s.quarantined),
            (2252, 0, 0, 0)
        );
    }

    #[test]
    fn counts_quarantined_instances_and_failures() {
        let text = "\
best cost: 3.50% mean CPI error (812 evaluations, 17 retries, 2 configurations failed)
quarantined instance 3 (MD): measuring MD: board dropped the run
quarantined instance 11 (ML2 (b)): measuring ML2 (b): persistent fault
";
        let s = parse_summary(text).expect("parses");
        assert_eq!(
            (s.evals, s.retries, s.failed_configs, s.quarantined),
            (812, 17, 2, 2)
        );
    }

    #[test]
    fn rejects_missing_malformed_and_aborted_summaries() {
        for bad in [
            "",
            "tuning the in-order model over 40 benchmarks ...\n",
            "best cost: x% mean CPI error (1 evaluations, 0 retries, 0 configurations failed)\n",
            "best cost: 1.00% mean CPI error (1 evaluations, 0 retries)\n",
            "best cost: 1.00% mean CPI error (1 evaluations, 0 retries, 0 configurations failed\n",
            "best cost: inf% mean CPI error (0 evaluations, 0 retries, 0 configurations failed)\n",
        ] {
            assert!(parse_summary(bad).is_err(), "{bad:?} must not parse");
        }
        let aborted = format!("run aborted before completion\n{CLEAN}");
        assert!(parse_summary(&aborted).is_err());
    }

    #[test]
    fn parses_vmhwm_from_proc_status() {
        let status =
            "Name:\tracesim\nVmPeak:\t  300000 kB\nVmHWM:\t  285132 kB\nVmRSS:\t  1000 kB\n";
        assert_eq!(parse_vmhwm_kb(status), Some(285_132));
        assert_eq!(parse_vmhwm_kb("Name:\tzombie\nState:\tZ (zombie)\n"), None);
        assert_eq!(parse_vmhwm_kb("VmHWM:\t  12 MB\n"), None);
        // This process has a status file with a high-water mark.
        assert!(vmhwm_kb(std::process::id()).is_some_and(|kb| kb > 0));
    }

    #[test]
    fn parses_ppid_past_odd_command_names() {
        assert_eq!(parse_ppid("42 (racesim) S 7 42 42 0 -1"), Some(7));
        assert_eq!(parse_ppid("42 (a) b (c)) R 9 1 1"), Some(9));
        assert_eq!(parse_ppid("garbage"), None);
    }
}
