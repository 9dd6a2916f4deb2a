//! Distributed-campaign determinism acceptance test: one golden staged
//! campaign run four ways —
//!
//! 1. sequential (`--threads 1`),
//! 2. in-process parallel (`--threads 4`),
//! 3. distributed over two spawned workers (`--workers 2`),
//! 4. distributed with one worker killed mid-iteration
//!    (`--worker-cmd "… worker --exit-after 1 --only-worker 0"`),
//!
//! must produce **byte-identical checkpoints** and pass `racesim replay`
//! with a non-diverged verdict. The kill run must additionally exit 0,
//! journal the `worker_failed` events, and change nothing downstream —
//! worker death is a scheduling event, not a campaign event.

use std::path::PathBuf;
use std::process::{Command, Output};

fn racesim(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_racesim"))
        .args(args)
        .output()
        .expect("binary runs")
}

/// A scratch directory wiped on drop.
struct Scratch(PathBuf);

impl Scratch {
    fn new(tag: &str) -> Scratch {
        let dir = std::env::temp_dir().join(format!("racesim-dist-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create scratch dir");
        Scratch(dir)
    }

    fn path(&self, name: &str) -> String {
        self.0.join(name).display().to_string()
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// One staged golden campaign: tiny scale, one iteration, modest budget
/// so the debug-build test stays fast. `--faults none` because injected
/// board-fault schedules are keyed per process and so are the one
/// campaign dimension that is *not* distribution-invariant.
fn run_campaign(scratch: &Scratch, tag: &str, extra: &[&str]) -> (String, String) {
    let ckpt = scratch.path(&format!("{tag}.ckpt"));
    let journal = scratch.path(&format!("{tag}.jsonl"));
    let mut args = vec![
        "tune",
        "--core",
        "a53",
        "--scale",
        "65536",
        "--budget",
        "80",
        "--max-iterations",
        "1",
        "--seed",
        "7",
        "--faults",
        "none",
        "--checkpoint",
        &ckpt,
        "--telemetry",
        &journal,
    ];
    args.extend_from_slice(extra);
    let out = racesim(&args);
    assert!(
        out.status.success(),
        "{tag} run failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    (ckpt, journal)
}

/// The first journal line of event `ev` carrying `"key":value` with
/// `key` = `name`, or any line of `ev` when `name` is empty: the integer
/// after `"field":` on it.
fn journal_u64(journal: &str, ev: &str, name: &str, field: &str) -> u64 {
    let tag = format!("\"ev\":\"{ev}\"");
    let named = format!("\"name\":\"{name}\"");
    let line = journal
        .lines()
        .find(|l| l.contains(&tag) && (name.is_empty() || l.contains(&named)))
        .unwrap_or_else(|| panic!("journal has no {ev} {name} line"));
    let key = format!("\"{field}\":");
    let rest = &line[line.find(&key).expect("field present") + key.len()..];
    let digits: String = rest.chars().take_while(char::is_ascii_digit).collect();
    digits.parse().expect("integer field")
}

/// Number of `evaluation` events per workload.
fn evaluations_by_workload(journal: &str) -> std::collections::BTreeMap<String, usize> {
    let mut by = std::collections::BTreeMap::new();
    for line in journal
        .lines()
        .filter(|l| l.contains("\"ev\":\"evaluation\""))
    {
        let start = line.find("\"workload\":\"").expect("workload field") + 12;
        let name = &line[start..start + line[start..].find('"').expect("closing quote")];
        *by.entry(name.to_string()).or_insert(0) += 1;
    }
    by
}

fn checkpoint_bytes(path: &str) -> Vec<u8> {
    std::fs::read(path).unwrap_or_else(|e| panic!("read checkpoint {path}: {e}"))
}

fn assert_replay_passes(journal: &str, tag: &str) {
    let out = racesim(&["replay", journal]);
    assert!(
        out.status.success(),
        "{tag} replay exited nonzero:\n{}",
        String::from_utf8_lossy(&out.stdout)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(
        text.contains("verdict:             match") || text.contains("verdict:             prefix"),
        "{tag} replay verdict diverged:\n{text}"
    );
}

#[test]
fn distributed_campaigns_are_bit_identical_to_sequential() {
    let scratch = Scratch::new("determinism");
    let worker_kill_cmd = format!(
        "{} worker --exit-after 1 --only-worker 0",
        env!("CARGO_BIN_EXE_racesim")
    );

    let (seq_ckpt, seq_journal) = run_campaign(&scratch, "seq", &["--threads", "1"]);
    let (par_ckpt, _) = run_campaign(&scratch, "par", &["--threads", "4"]);
    let (dist_ckpt, dist_journal) =
        run_campaign(&scratch, "dist", &["--threads", "1", "--workers", "2"]);
    let (kill_ckpt, kill_journal) = run_campaign(
        &scratch,
        "kill",
        &[
            "--threads",
            "1",
            "--workers",
            "2",
            "--worker-cmd",
            &worker_kill_cmd,
        ],
    );

    // The tentpole guarantee: all four checkpoints are byte-identical.
    let golden = checkpoint_bytes(&seq_ckpt);
    assert!(!golden.is_empty(), "sequential checkpoint is empty");
    assert_eq!(
        golden,
        checkpoint_bytes(&par_ckpt),
        "--threads 4 checkpoint diverged from sequential"
    );
    assert_eq!(
        golden,
        checkpoint_bytes(&dist_ckpt),
        "--workers 2 checkpoint diverged from sequential"
    );
    assert_eq!(
        golden,
        checkpoint_bytes(&kill_ckpt),
        "worker-kill run checkpoint diverged from sequential"
    );

    // Worker lifecycle is journaled: the healthy distributed run spawned
    // two workers and lost none; the kill run lost at least one and
    // still finished (exit 0 already asserted in run_campaign).
    let dist_lines = std::fs::read_to_string(&dist_journal).expect("dist journal");
    assert_eq!(
        dist_lines
            .lines()
            .filter(|l| l.contains("\"ev\":\"worker_spawned\""))
            .count(),
        2,
        "healthy run spawns exactly its two workers"
    );
    assert!(
        !dist_lines.contains("\"ev\":\"worker_failed\""),
        "healthy run must not record worker failures"
    );
    // A pool that silently degraded to local evaluation would be fast and
    // still byte-identical; the healthy run must have sent every
    // evaluation to a worker and got every one back first time.
    let evals = journal_u64(&dist_lines, "campaign_end", "", "evals");
    assert!(evals > 0, "the campaign evaluated something");
    assert_eq!(
        journal_u64(&dist_lines, "counter", "dist.dispatched", "value"),
        evals,
        "every evaluation is dispatched to a worker"
    );
    for counter in ["dist.local_fallback", "dist.redispatched"] {
        assert_eq!(
            journal_u64(&dist_lines, "counter", counter, "value"),
            0,
            "healthy run: {counter}"
        );
    }
    // Worker evidence is not dropped: the coordinator journals the same
    // evaluations, workload by workload, as the in-process run.
    let seq_lines = std::fs::read_to_string(&seq_journal).expect("seq journal");
    let seq_evals = evaluations_by_workload(&seq_lines);
    assert_eq!(seq_evals.values().sum::<usize>() as u64, evals);
    assert_eq!(evaluations_by_workload(&dist_lines), seq_evals);

    let kill_lines = std::fs::read_to_string(&kill_journal).expect("kill journal");
    assert!(
        kill_lines.contains("\"ev\":\"worker_failed\""),
        "killed worker must be journaled"
    );
    assert!(
        kill_lines
            .lines()
            .filter(|l| l.contains("\"ev\":\"worker_spawned\""))
            .count()
            > 2,
        "killed worker must be respawned"
    );

    // And the replay gate accepts every journal, distributed or not.
    assert_replay_passes(&seq_journal, "sequential");
    assert_replay_passes(&dist_journal, "distributed");
    assert_replay_passes(&kill_journal, "worker-kill");
}
