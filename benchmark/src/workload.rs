//! The benchmark's workloads: four `racesim tune` campaigns that stress
//! different layers, and the tuner seeds each run derives from `--seed`.

use racesim_core::CampaignSpec;
use racesim_kernels::Scale;
use racesim_uarch::CoreKind;

/// Evaluation threads of every campaign: the host's two cores, one
/// closed-loop campaign at a time, so the numbers measure the program
/// rather than the scheduler.
pub const THREADS: usize = 2;

/// Tuner seed of each run's reference campaign. Accuracy is a property of
/// the tuned model, and a tuner's outcome swings by tens of percent from
/// seed to seed, so the exact accuracy metrics come from one pinned
/// campaign; timing comes from campaigns whose seeds derive from `--seed`.
pub const REFERENCE_SEED: u64 = 7;

/// Scale divisor of the held-out SPEC proxy check (the CLI's default
/// scale), the same for every workload so holdout errors compare.
pub const HOLDOUT_SCALE: u64 = 2048;

/// One benchmark workload: a `racesim tune` campaign shape.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Workload {
    /// Name used on the command line and in `BENCHMARK.json`.
    pub name: &'static str,
    /// Core tuned (`--core`).
    pub core: &'static str,
    /// Dynamic-instruction scale divisor (`--scale`).
    pub scale: u64,
    /// Racing evaluation budget (`--budget`).
    pub budget: u64,
    /// Worker processes (`--workers`; 0 evaluates in-process).
    pub workers: usize,
}

/// Every workload, in the order the suite runs them round-robin. The
/// README gives the traced measurements behind each reason.
pub const WORKLOADS: [Workload; 4] = [
    // The in-order campaign on long traces: an evaluation simulates tens
    // of thousands of instructions, so the per-instruction fetch/execute
    // loop dominates it and per-evaluation fixed costs barely show.
    Workload {
        name: "a53-long",
        core: "a53",
        scale: 64,
        budget: 2000,
        workers: 0,
    },
    // The same campaign through the out-of-order core model: a change to
    // the shared replay loop or to core dispatch must help, or at least
    // not hurt, both models.
    Workload {
        name: "a72-long",
        core: "a72",
        scale: 64,
        budget: 2000,
        workers: 0,
    },
    // About ten times the evaluations of a53-long on traces mostly at the
    // 512-instruction floor: per-evaluation fixed costs and race
    // bookkeeping weigh several times more, per-instruction speedups less.
    Workload {
        name: "a53-short",
        core: "a53",
        scale: 32768,
        budget: 100_000,
        workers: 0,
    },
    // Evaluations go through the worker-process pool instead of threads;
    // most of the wall is dispatch overhead, which simulator changes
    // barely move.
    Workload {
        name: "a53-dist2",
        core: "a53",
        scale: 1024,
        budget: 1000,
        workers: 2,
    },
];

impl Workload {
    /// Looks a workload up by name.
    pub fn by_name(name: &str) -> Option<Workload> {
        WORKLOADS.iter().copied().find(|w| w.name == name)
    }

    /// The core model this workload tunes.
    pub fn kind(&self) -> CoreKind {
        match self.core {
            "a72" => CoreKind::OutOfOrder,
            _ => CoreKind::InOrder,
        }
    }

    /// `racesim tune` arguments of one campaign at `seed`, writing the
    /// tuned configuration to `out`. `workers` overrides the workload's
    /// own worker count (the in-process cross-check passes 0).
    pub fn tune_args(&self, seed: u64, workers: usize, out: &str) -> Vec<String> {
        let mut args: Vec<String> = [
            "tune",
            "--core",
            self.core,
            "--scale",
            &self.scale.to_string(),
            "--budget",
            &self.budget.to_string(),
            "--threads",
            &THREADS.to_string(),
            "--seed",
            &seed.to_string(),
            "--out",
            out,
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        if workers > 0 {
            args.extend(["--workers".to_string(), workers.to_string()]);
        }
        args
    }

    /// The campaign `racesim tune` runs for [`Workload::tune_args`], as
    /// the library describes it (in-process; `workers` is non-semantic).
    pub fn spec(&self, seed: u64) -> CampaignSpec {
        CampaignSpec {
            kind: self.kind(),
            scale: Scale::divide_by(self.scale),
            budget: self.budget,
            seed,
            threads: THREADS,
            workers: 0,
            max_iterations: None,
            static_bounds: false,
            timeout_ms: None,
            fault_profile: "none".to_string(),
            fault_seed: 1,
            frozen: Vec::new(),
        }
    }
}

/// Tuner seed of the `i`-th timed campaign of a run started with
/// `--seed seed`: distinct for every `(seed, i)` with `i < 1000`, so each
/// run samples fresh campaigns and the same seed repeats them exactly.
pub fn campaign_seed(seed: u64, i: u64) -> u64 {
    seed.wrapping_mul(1000).wrapping_add(i)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_resolvable() {
        for w in WORKLOADS {
            assert_eq!(Workload::by_name(w.name), Some(w));
        }
        assert_eq!(Workload::by_name("nope"), None);
    }

    #[test]
    fn spec_matches_the_cli_flags() {
        let w = Workload::by_name("a72-long").unwrap();
        let spec = w.spec(42);
        assert_eq!(spec.kind, CoreKind::OutOfOrder);
        assert_eq!(spec.scale.divisor(), 64);
        assert_eq!(spec.tuner_settings().seed, 42);
        assert_eq!(spec.tuner_settings().threads, THREADS);
        let args = w.tune_args(42, 0, "x.cfg");
        assert!(args.windows(2).any(|p| p == ["--seed", "42"]));
        assert!(!args.contains(&"--workers".to_string()));
        let dist = Workload::by_name("a53-dist2").unwrap();
        assert!(dist
            .tune_args(1, dist.workers, "x.cfg")
            .windows(2)
            .any(|p| p == ["--workers", "2"]));
    }

    #[test]
    fn derived_seeds_are_distinct_per_run() {
        assert_eq!(campaign_seed(7, 0), 7000);
        assert_ne!(campaign_seed(7, 1), campaign_seed(8, 1));
    }
}
