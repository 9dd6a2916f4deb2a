//! Campaign determinism audit (`RA5xx`).
//!
//! The resume guarantee (PR 2) and any parallel or distributed racing
//! depend on invariants nothing else in the tree verifies:
//!
//! * **RA501** — a tuner checkpoint must round-trip byte-for-byte through
//!   `render`/`parse`, including hostile floats (NaN payloads, signed
//!   zeros, subnormals, infinities): resumed campaigns otherwise diverge
//!   silently from their uninterrupted twins.
//! * **RA502** — the same seed must replay to the identical result.
//! * **RA503** — the thread count must not change the result: parallel
//!   evaluation merges into per-task slots, so `threads=4` has to equal
//!   `threads=1` bit-for-bit.
//! * **RA504** — building the parameter space twice must give the same
//!   dimension order and fingerprint; checkpoint compatibility and the
//!   sampling model's weight layout both key off that order.
//! * **RA505** — order-sensitive floating-point reductions in cost
//!   aggregation. Reported as Info while aggregation is sequential: it
//!   is the invariant a future distributed merge must not break.
//!
//! The replay probes run the real `RacingTuner` on a tiny synthetic cost
//! function (a few hundred evaluations, no simulation), so the audit is
//! cheap enough for `racesim lint --suite` and CI.

use crate::diag::{Diagnostic, Lint};
use racesim_race::{
    Configuration, ParamSpace, RacingTuner, TuneResult, Tuner, TunerCheckpoint, TunerSettings,
};

/// FNV-1a over a byte string — the audit's deterministic "cost model".
fn fnv(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// A deterministic synthetic cost: a hash of the configuration and the
/// instance index, scaled into [0, 1). Depends on nothing but its inputs.
fn synthetic_cost(cfg: &Configuration, space: &ParamSpace, instance: usize) -> f64 {
    let key = format!("{}#{instance}", cfg.render(space));
    (fnv(key.as_bytes()) >> 11) as f64 / (1u64 << 53) as f64
}

/// A small synthetic space for the replay probes: enough dimensions for
/// a multi-iteration schedule, small enough to race in milliseconds.
fn probe_space() -> ParamSpace {
    let mut s = ParamSpace::new();
    s.add_integer("probe.a", &[1, 2, 4, 8]);
    s.add_integer("probe.b", &[16, 32, 64]);
    s.add_categorical("probe.c", &["x", "y", "z"]);
    s.add_bool("probe.d");
    s
}

fn probe_settings(threads: usize) -> TunerSettings {
    TunerSettings {
        budget: 300,
        threads,
        seed: 0x5EED_D00D,
        ..TunerSettings::default()
    }
}

/// A result digest: every field that must be identical across replays.
fn digest(space: &ParamSpace, r: &TuneResult) -> String {
    let elites: Vec<String> = r
        .elites
        .iter()
        .map(|(c, cost)| format!("{}={:016x}", c.render(space), cost.to_bits()))
        .collect();
    format!(
        "best={} cost={:016x} evals={} elites=[{}] iters={}",
        r.best.render(space),
        r.best_cost.to_bits(),
        r.evals_used,
        elites.join("; "),
        r.history.len(),
    )
}

/// Floats chosen to break naive float serialisation: NaN with payload
/// bits, signed zero, the smallest subnormal, infinities, and values with
/// no short decimal form.
const HOSTILE: [f64; 8] = [
    0.1,
    -0.0,
    5e-324,
    f64::INFINITY,
    f64::NEG_INFINITY,
    f64::MAX,
    -1.000000000000002,
    0.30000000000000004,
];

/// Builds a checkpoint exercising every section with hostile payloads.
fn adversarial_checkpoint(space: &ParamSpace) -> TunerCheckpoint {
    let nan = f64::from_bits(0x7ff8_dead_beef_cafe);
    let weights = space
        .params()
        .iter()
        .enumerate()
        .map(|(i, p)| {
            (0..p.domain.cardinality())
                .map(|j| HOSTILE[(i + j) % HOSTILE.len()].abs().min(1e9) + 1e-3)
                .collect()
        })
        .collect();
    // A second configuration that differs from the default in dimension 0,
    // using a value valid for that dimension's actual domain.
    let mut other = space.default_configuration();
    let p0 = &space.params()[0];
    let j = if other.value(0) == crate::param::candidate_value(&p0.domain, 0) {
        1 % p0.domain.cardinality()
    } else {
        0
    };
    other.set_value(0, crate::param::candidate_value(&p0.domain, j));
    TunerCheckpoint {
        next_iteration: 3,
        budget_remaining: 1234,
        evals_used: 766,
        retries: 2,
        failed_configs: 1,
        seed: 0xBADC_AB1E,
        n_instances: 5,
        space_fingerprint: TunerCheckpoint::fingerprint(space),
        rng_state: [1, u64::MAX, 0x8000_0000_0000_0000, 42],
        spread: 5e-324,
        weights,
        elites: vec![(space.default_configuration(), nan), (other.clone(), -0.0)],
        quarantine: vec![(3, "noisy board: cv 12% > 5%".to_string())],
        cache: vec![(other, 0, 0.30000000000000004)],
        history: Vec::new(),
    }
}

/// Runs the full determinism audit. `build_space` constructs the campaign
/// space; it is called twice on purpose — construction-order stability is
/// one of the audited invariants.
pub fn check(build_space: &dyn Fn() -> ParamSpace) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    let space = build_space();

    // RA504: a second construction must match dimension-for-dimension.
    let again = build_space();
    let names = |s: &ParamSpace| {
        s.params()
            .iter()
            .map(|p| p.name.clone())
            .collect::<Vec<_>>()
    };
    if TunerCheckpoint::fingerprint(&space) != TunerCheckpoint::fingerprint(&again)
        || names(&space) != names(&again)
    {
        out.push(
            Diagnostic::new(
                Lint::SpaceOrderInstability,
                "building the parameter space twice gives different dimension \
                 orders or fingerprints: checkpoints and sampling-model weights \
                 would not be portable across runs",
            )
            .with(
                "first",
                format!("{:#018x}", TunerCheckpoint::fingerprint(&space)),
            )
            .with(
                "second",
                format!("{:#018x}", TunerCheckpoint::fingerprint(&again)),
            ),
        );
    }

    // RA501: adversarial checkpoint must round-trip byte-for-byte.
    let cp = adversarial_checkpoint(&space);
    let text = cp.render();
    match TunerCheckpoint::parse(&space, &text) {
        Err(e) => out.push(
            Diagnostic::new(
                Lint::CheckpointRoundtripDrift,
                "a rendered checkpoint with hostile float payloads fails to parse back",
            )
            .with("error", format!("{e}")),
        ),
        Ok(back) => {
            let text2 = back.render();
            if text2 != text {
                let line = text
                    .lines()
                    .zip(text2.lines())
                    .find(|(a, b)| a != b)
                    .map(|(a, b)| format!("`{a}` became `{b}`"))
                    .unwrap_or_else(|| "length drift".to_string());
                out.push(
                    Diagnostic::new(
                        Lint::CheckpointRoundtripDrift,
                        "checkpoint render/parse round-trip is not byte-stable: \
                         a resumed campaign would diverge from its uninterrupted twin",
                    )
                    .with("first_difference", line),
                );
            }
        }
    }

    // RA502: same-seed replay must be identical.
    let probe = probe_space();
    let run =
        |threads: usize| RacingTuner::new(probe_settings(threads)).tune(&probe, &synthetic_cost, 6);
    let a = run(1);
    let b = run(1);
    let (da, db) = (digest(&probe, &a), digest(&probe, &b));
    if da != db {
        out.push(
            Diagnostic::new(
                Lint::ReplayDivergence,
                "two runs with the same seed disagree: the tuner is not a pure \
                 function of (space, cost, seed) and resume cannot be trusted",
            )
            .with("first", da.clone())
            .with("second", db),
        );
    }

    // RA503: thread count must not leak into the result.
    let c = run(4);
    let dc = digest(&probe, &c);
    if da != dc {
        out.push(
            Diagnostic::new(
                Lint::ThreadDivergence,
                "threads=4 and threads=1 give different results: parallel \
                 evaluation order is leaking into cost aggregation",
            )
            .with("threads_1", da)
            .with("threads_4", dc),
        );
    }

    // RA505: is the cost reduction order-sensitive? Sum a probe vector
    // forward and reversed through the library mean; naive sequential
    // summation differs in the last bits, which a distributed merge
    // must therefore never reorder.
    let xs = [1e16, 3.25, -1e16, 2.5, 1e-9, 0.1, -0.3, 7.5];
    let rev: Vec<f64> = xs.iter().rev().copied().collect();
    let (fwd, bwd) = (racesim_stats::mean(&xs), racesim_stats::mean(&rev));
    if fwd.to_bits() != bwd.to_bits() {
        out.push(
            Diagnostic::new(
                Lint::FloatReductionOrder,
                "cost aggregation (racesim_stats::mean) is order-sensitive: \
                 any parallel or distributed racing must merge partial costs \
                 in canonical instance order",
            )
            .with("forward_bits", format!("{:016x}", fwd.to_bits()))
            .with("reversed_bits", format!("{:016x}", bwd.to_bits())),
        );
    }

    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn shipped_space() -> ParamSpace {
        probe_space()
    }

    #[test]
    fn shipped_code_has_no_determinism_errors() {
        let diags = check(&shipped_space);
        let errors: Vec<_> = diags
            .iter()
            .filter(|d| d.severity == crate::Severity::Error)
            .collect();
        assert!(errors.is_empty(), "{errors:?}");
    }

    #[test]
    fn float_reduction_order_hazard_is_reported() {
        // The shipped mean is a naive sequential sum, so the audit must
        // report the (Info-level) reduction-order hazard.
        let diags = check(&shipped_space);
        assert!(diags.iter().any(|d| d.lint == Lint::FloatReductionOrder));
    }

    #[test]
    fn adversarial_checkpoint_roundtrips() {
        let space = shipped_space();
        let cp = adversarial_checkpoint(&space);
        let text = cp.render();
        let back = TunerCheckpoint::parse(&space, &text).expect("parses");
        assert_eq!(back.render(), text);
    }

    #[test]
    fn unstable_space_builder_is_caught() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let calls = AtomicUsize::new(0);
        let unstable = move || {
            let mut s = ParamSpace::new();
            if calls.fetch_add(1, Ordering::Relaxed).is_multiple_of(2) {
                s.add_integer("a.first", &[1, 2]);
                s.add_integer("b.second", &[3, 4]);
            } else {
                s.add_integer("b.second", &[3, 4]);
                s.add_integer("a.first", &[1, 2]);
            }
            s
        };
        let diags = check(&unstable);
        assert!(diags.iter().any(|d| d.lint == Lint::SpaceOrderInstability));
    }
}
