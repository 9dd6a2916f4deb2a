//! Checkpoint → resume determinism: a tuning run killed mid-flight and
//! resumed from its checkpoint must produce a **bit-identical**
//! `TuneResult` to the same run left uninterrupted.

use racesim_race::{
    Configuration, EvalError, ParamSpace, RacingTuner, RetryPolicy, TryCostFn, TuneResult,
    TunerSettings,
};
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
    std::env::temp_dir().join(format!("racesim_{}_{name}.ckpt", std::process::id()))
}

/// Field-by-field bit equality, `f64`s compared via `to_bits`.
fn assert_bit_identical(a: &TuneResult, b: &TuneResult) {
    assert_eq!(a.best, b.best, "best configuration");
    assert_eq!(
        a.best_cost.to_bits(),
        b.best_cost.to_bits(),
        "best cost: {} vs {}",
        a.best_cost,
        b.best_cost
    );
    assert_eq!(a.elites.len(), b.elites.len(), "elite count");
    for (x, y) in a.elites.iter().zip(&b.elites) {
        assert_eq!(x.0, y.0, "elite configuration");
        assert_eq!(x.1.to_bits(), y.1.to_bits(), "elite cost");
    }
    assert_eq!(a.evals_used, b.evals_used, "evaluations");
    assert_eq!(a.retries, b.retries, "retries");
    assert_eq!(a.failed_configs, b.failed_configs, "failed configs");
    assert_eq!(a.quarantined, b.quarantined, "quarantine");
    assert_eq!(a.history.len(), b.history.len(), "iteration count");
    for (x, y) in a.history.iter().zip(&b.history) {
        assert_eq!(x.iteration, y.iteration);
        assert_eq!(x.configs_raced, y.configs_raced);
        assert_eq!(x.blocks_used, y.blocks_used);
        assert_eq!(x.evals_used, y.evals_used);
        assert_eq!(x.best_cost.to_bits(), y.best_cost.to_bits());
        assert_eq!(x.eliminations, y.eliminations);
    }
}

#[test]
fn staged_run_resumes_bit_identically() {
    let s = space();
    let seed = 0xDEAD_BEEF;

    // Reference: one uninterrupted run.
    let full = RacingTuner::new(settings(seed)).try_tune(&s, &Synthetic, 12);
    assert!(full.history.len() >= 2, "need at least two iterations");

    // Staged: stop after iteration 1 (checkpoint written), then resume.
    let path = tmp("staged");
    let _ = std::fs::remove_file(&path);
    let first = RacingTuner::new(TunerSettings {
        max_iterations: Some(1),
        ..settings(seed)
    })
    .with_checkpoint(&path)
    .try_tune(&s, &Synthetic, 12);
    assert_eq!(first.history.len(), 1);
    assert!(path.exists(), "checkpoint must have been written");

    let resumed = RacingTuner::new(settings(seed))
        .with_checkpoint(&path)
        .with_resume(&path)
        .try_tune(&s, &Synthetic, 12);
    assert!(resumed.warnings.is_empty(), "{:?}", resumed.warnings);

    assert_bit_identical(&full, &resumed);
    let _ = std::fs::remove_file(&path);
}

/// FNV-1a, to pin a checkpoint's bytes without storing them.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

#[test]
fn resumed_checkpoint_bytes_are_pinned() {
    // One iteration staged on four threads, a second one resumed: the
    // checkpoint the resumed run leaves holds the cost memo of both, in
    // whatever order the threads filled it. Its bytes are pinned, so a
    // change to how the memo stores, orders or counts its entries shows.
    let s = space();
    let seed = 0x00C0_FFEE;
    let path = tmp("pinned");
    let _ = std::fs::remove_file(&path);
    let staged = |iterations, resume| {
        let tuner = RacingTuner::new(TunerSettings {
            max_iterations: Some(iterations),
            threads: 4,
            ..settings(seed)
        })
        .with_checkpoint(&path);
        let tuner = if resume {
            tuner.with_resume(&path)
        } else {
            tuner
        };
        tuner.try_tune(&s, &Synthetic, 12)
    };
    staged(1, false);
    let resumed = staged(2, true);
    assert!(resumed.warnings.is_empty(), "{:?}", resumed.warnings);
    assert_eq!(resumed.history.len(), 2);
    let text = std::fs::read_to_string(&path).unwrap();
    assert_eq!(
        (text.len(), fnv1a(text.as_bytes())),
        (6403, 4830169200465234670)
    );
    let _ = std::fs::remove_file(&path);
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
fn killed_mid_iteration_then_resumed_matches_uninterrupted() {
    let s = space();
    let seed = 0xFEED_F00D;

    let full = RacingTuner::new(settings(seed)).try_tune(&s, &Synthetic, 12);
    assert!(full.history.len() >= 2);
    let first_iter_evals = full.history[0].evals_used;

    // Kill partway through the *second* iteration: the checkpoint then
    // holds iteration 0 only, and the partial iteration 1 is discarded.
    let path = tmp("killed");
    let _ = std::fs::remove_file(&path);
    let cancel = Arc::new(AtomicBool::new(false));
    let killer = KillSwitch {
        after: first_iter_evals + 3,
        seen: AtomicU64::new(0),
        cancel: Arc::clone(&cancel),
    };
    let killed = RacingTuner::new(settings(seed))
        .with_checkpoint(&path)
        .with_cancel(cancel)
        .try_tune(&s, &killer, 12);
    assert!(killed.aborted, "the kill switch must have fired");
    assert!(path.exists());

    let resumed = RacingTuner::new(settings(seed))
        .with_checkpoint(&path)
        .with_resume(&path)
        .try_tune(&s, &Synthetic, 12);
    assert!(!resumed.aborted);
    assert!(resumed.warnings.is_empty(), "{:?}", resumed.warnings);

    assert_bit_identical(&full, &resumed);
    let _ = std::fs::remove_file(&path);
}

#[test]
fn resume_from_a_missing_checkpoint_is_a_normal_fresh_run() {
    let s = space();
    let path = tmp("missing");
    let _ = std::fs::remove_file(&path);
    let fresh = RacingTuner::new(settings(1)).try_tune(&s, &Synthetic, 12);
    let resumed = RacingTuner::new(settings(1))
        .with_resume(&path)
        .try_tune(&s, &Synthetic, 12);
    assert!(resumed.warnings.is_empty(), "{:?}", resumed.warnings);
    assert_bit_identical(&fresh, &resumed);
}

#[test]
fn corrupt_or_foreign_checkpoints_are_ignored_with_a_warning() {
    let s = space();

    // Corrupt text, and a checkpoint in the retired `key = value` text
    // format: each is one warning and a fresh run.
    let fresh = RacingTuner::new(settings(2)).try_tune(&s, &Synthetic, 12);
    let legacy = "# racesim tuner checkpoint\nversion = 1\n\n[tuner]\n\
                  seed = 0000000000000002\nn_instances = 12\nnext_iteration = 1\n\
                  budget_remaining = 700\n\n[rng]\nstate = 1 2 3 4\n\n\
                  [elites]\ncount = 1\ne0 = I3.I2.C0.F1 3ff0000000000000\n";
    let path = tmp("corrupt");
    for text in ["not a checkpoint at all", legacy] {
        std::fs::write(&path, text).unwrap();
        let r = RacingTuner::new(settings(2))
            .with_resume(&path)
            .try_tune(&s, &Synthetic, 12);
        assert_eq!(r.warnings.len(), 1, "{:?}", r.warnings);
        assert!(r.warnings[0].contains("checkpoint"), "{:?}", r.warnings);
        assert_bit_identical(&fresh, &r);
    }
    let _ = std::fs::remove_file(&path);

    // Valid checkpoint, wrong run shape (different seed).
    let path = tmp("foreign");
    let _ = std::fs::remove_file(&path);
    RacingTuner::new(TunerSettings {
        max_iterations: Some(1),
        ..settings(3)
    })
    .with_checkpoint(&path)
    .try_tune(&s, &Synthetic, 12);
    let r = RacingTuner::new(settings(4))
        .with_resume(&path)
        .try_tune(&s, &Synthetic, 12);
    assert_eq!(r.warnings.len(), 1, "{:?}", r.warnings);
    assert!(r.warnings[0].contains("checkpoint"), "{:?}", r.warnings);
    // The foreign state was not absorbed: the run equals a fresh one.
    let fresh = RacingTuner::new(settings(4)).try_tune(&s, &Synthetic, 12);
    assert_bit_identical(&fresh, &r);

    // Same seed, another campaign: its cached costs are not raced.
    RacingTuner::new(TunerSettings {
        max_iterations: Some(1),
        ..settings(4)
    })
    .with_campaign("scale=1/65536")
    .with_checkpoint(&path)
    .try_tune(&s, &Synthetic, 12);
    let r = RacingTuner::new(settings(4))
        .with_campaign("scale=1/32768")
        .with_resume(&path)
        .try_tune(&s, &Synthetic, 12);
    assert_eq!(r.warnings.len(), 1, "{:?}", r.warnings);
    assert!(r.warnings[0].contains("campaign"), "{:?}", r.warnings);
    assert_bit_identical(&fresh, &r);
    let _ = std::fs::remove_file(&path);
}

#[test]
fn kill_during_checkpoint_write_never_tears_resume_state() {
    use racesim_race::TunerCheckpoint;

    let s = space();
    let seed = 0xCAFE_D00D;
    let full = RacingTuner::new(settings(seed)).try_tune(&s, &Synthetic, 12);

    // A valid checkpoint from a staged first run.
    let path = tmp("torn");
    let _ = std::fs::remove_file(&path);
    RacingTuner::new(TunerSettings {
        max_iterations: Some(1),
        ..settings(seed)
    })
    .with_checkpoint(&path)
    .try_tune(&s, &Synthetic, 12);
    let valid = std::fs::read_to_string(&path).unwrap();

    // The atomic protocol writes to `<path>.tmp` and renames. A process
    // killed at any byte of that write leaves a truncated tmp file next
    // to the intact previous checkpoint — simulate every prefix length
    // and prove resume never sees torn state.
    let tmp_path = {
        let mut p = path.as_os_str().to_owned();
        p.push(".tmp");
        PathBuf::from(p)
    };
    for cut in [0, 1, valid.len() / 2, valid.len().saturating_sub(1)] {
        std::fs::write(&tmp_path, &valid[..cut]).unwrap();
        let cp = TunerCheckpoint::read(&path, &s).expect("real checkpoint intact");
        assert!(cp.next_iteration >= 1, "restored the completed iteration");
        let resumed = RacingTuner::new(settings(seed))
            .with_resume(&path)
            .try_tune(&s, &Synthetic, 12);
        assert!(resumed.warnings.is_empty(), "{:?}", resumed.warnings);
        assert_bit_identical(&full, &resumed);
    }

    // Had the write gone to `path` in place (non-atomic), any truncation
    // would corrupt resume state. Prove every prefix is rejected cleanly
    // (warning + fresh run, no panic) — the failure mode the tmp+rename
    // protocol exists to prevent.
    for cut in [0, 1, valid.len() / 3, valid.len() - 1] {
        std::fs::write(&path, &valid[..cut]).unwrap();
        let r = RacingTuner::new(settings(seed))
            .with_resume(&path)
            .try_tune(&s, &Synthetic, 12);
        if !r.warnings.is_empty() {
            assert_eq!(r.warnings.len(), 1, "cut at {cut}: {:?}", r.warnings);
        }
        // Rejected prefixes fall back to a fresh run; a prefix that only
        // lost trailing whitespace still restores full state. Either way
        // the result is the uninterrupted campaign, bit for bit.
        assert_bit_identical(&full, &r);
    }

    // And a completed save leaves no tmp file behind.
    std::fs::write(&path, &valid).unwrap();
    let cp = TunerCheckpoint::read(&path, &s).unwrap();
    std::fs::remove_file(&tmp_path).ok();
    cp.save(&path).unwrap();
    assert!(!tmp_path.exists(), "save must clean up its tmp file");
    assert_eq!(std::fs::read_to_string(&path).unwrap(), valid);

    let _ = std::fs::remove_file(&path);
    let _ = std::fs::remove_file(&tmp_path);
}
