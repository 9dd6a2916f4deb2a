//! Deterministic fault injection: every board pathology the fault-tolerant
//! tune path must survive, reproducible by seed in CI.
//!
//! Real boards drop measurements, glitch counters into outliers, fail
//! transiently under thermal/OS interference, and occasionally hang. A
//! [`FaultyBoard`] wraps any [`HardwarePlatform`] and injects exactly
//! those pathologies according to a [`FaultPlan`]:
//!
//! * **transient errors** are drawn per `(workload, attempt)` — a retry of
//!   the same workload re-rolls, so bounded-backoff retry loops can
//!   succeed, exactly like a real glitch clearing;
//! * **dropped measurements** are drawn per workload — every attempt fails
//!   the same way, modelling a benchmark the board persistently cannot
//!   measure (the racing layer must quarantine it);
//! * **outlier spikes** multiply the reported cycle count — the
//!   measurement "succeeds" with a wildly wrong value;
//! * **hangs** sleep before returning, so a wall-clock watchdog is the
//!   only defence.
//!
//! All decisions hash `(seed, workload name, attempt)` — deterministic
//! regardless of thread interleaving, because each workload name carries
//! its own attempt counter.

use crate::counters::PerfCounters;
use crate::{HardwarePlatform, MeasureError};
use racesim_kernels::Workload;
use racesim_telemetry::{Counter, Event, Telemetry};
use racesim_trace::{CompactTrace, TraceBuffer};
use std::collections::HashMap;
use std::fmt;
use std::sync::Mutex;
use std::time::Duration;

/// A deterministic schedule of injected board faults.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultPlan {
    /// Seed for all fault decisions.
    pub seed: u64,
    /// Probability a given `(workload, attempt)` fails transiently.
    pub transient_rate: f64,
    /// Probability a workload's measurement is *persistently* dropped
    /// (same outcome on every attempt).
    pub drop_rate: f64,
    /// Probability a given `(workload, attempt)` reports an outlier.
    pub spike_rate: f64,
    /// Cycle-count multiplier applied to an outlier measurement.
    pub spike_magnitude: f64,
    /// Probability a given `(workload, attempt)` hangs before returning.
    pub hang_rate: f64,
    /// How long a hung measurement sleeps.
    pub hang: Duration,
}

impl FaultPlan {
    /// No faults at all — a [`FaultyBoard`] with this plan is transparent.
    pub fn none() -> FaultPlan {
        FaultPlan {
            seed: 0,
            transient_rate: 0.0,
            drop_rate: 0.0,
            spike_rate: 0.0,
            spike_magnitude: 1.0,
            hang_rate: 0.0,
            hang: Duration::ZERO,
        }
    }

    /// Only transient faults, at `rate` — the retry/backoff exercise.
    pub fn transient(seed: u64, rate: f64) -> FaultPlan {
        FaultPlan {
            seed,
            transient_rate: rate,
            ..FaultPlan::none()
        }
    }

    /// An aggressive mixed plan for CI smoke tests: frequent transients,
    /// occasional drops and spikes, brief hangs.
    pub fn aggressive(seed: u64) -> FaultPlan {
        FaultPlan {
            seed,
            transient_rate: 0.10,
            drop_rate: 0.05,
            spike_rate: 0.05,
            spike_magnitude: 8.0,
            hang_rate: 0.02,
            hang: Duration::from_millis(50),
        }
    }

    /// Builds the plan a named CLI profile denotes, so a recorded
    /// campaign (`campaign_config.faults` in the journal) reconstructs
    /// the exact same fault schedule on replay. `Ok(None)` means no
    /// fault injection at all.
    ///
    /// # Errors
    ///
    /// Unknown profile names are rejected with the accepted spellings.
    pub fn from_profile(profile: &str, seed: u64) -> Result<Option<FaultPlan>, String> {
        match profile {
            "none" => Ok(None),
            "transient" => Ok(Some(FaultPlan::transient(seed, 0.10))),
            "aggressive" => Ok(Some(FaultPlan::aggressive(seed))),
            other => Err(format!(
                "unknown fault profile {other:?} (use none, transient or aggressive)"
            )),
        }
    }

    /// Derives a per-worker seed from a base fault seed: worker 0 keeps
    /// the base seed unchanged, every other worker gets a splitmix64
    /// mix of `(base, worker)`. Stable across runs, so a distributed
    /// campaign's fault schedule is addressable per worker slot.
    pub fn worker_seed(base: u64, worker: usize) -> u64 {
        if worker == 0 {
            return base;
        }
        let mut z = base
            .wrapping_add((worker as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15))
            .wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// The same plan re-seeded for worker slot `worker` (identity for
    /// worker 0, the coordinator's own slot).
    ///
    /// Fault schedules are keyed by per-process attempt counters, so a
    /// shared seed would *not* make a distributed campaign's injected
    /// faults match a sequential run anyway — instead each worker gets
    /// its own deterministic schedule, reproducible given the same
    /// `(base seed, worker slot)` pair.
    pub fn for_worker(&self, worker: usize) -> FaultPlan {
        FaultPlan {
            seed: FaultPlan::worker_seed(self.seed, worker),
            ..*self
        }
    }

    /// FNV-1a over the seed, a decision tag, the workload name, and the
    /// attempt number, mapped to `[0, 1)`.
    fn roll(&self, tag: u8, name: &str, attempt: u64) -> f64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64 ^ self.seed;
        let mut eat = |bytes: &[u8]| {
            for &b in bytes {
                h ^= b as u64;
                h = h.wrapping_mul(0x100_0000_01b3);
            }
        };
        eat(&[tag]);
        eat(name.as_bytes());
        eat(&attempt.to_le_bytes());
        (h >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// A [`HardwarePlatform`] wrapper that injects the faults scheduled by a
/// [`FaultPlan`] before and after delegating to the wrapped board.
pub struct FaultyBoard<B> {
    inner: B,
    plan: FaultPlan,
    attempts: Mutex<HashMap<String, u64>>,
    metrics: FaultMetrics,
}

/// Per-pathology injection counters, resolved once at attach time, plus
/// the journal handle for `fault` events.
#[derive(Debug, Default)]
struct FaultMetrics {
    telemetry: Telemetry,
    transient: Counter,
    drop: Counter,
    spike: Counter,
    hang: Counter,
}

impl FaultMetrics {
    fn new(telemetry: Telemetry) -> FaultMetrics {
        FaultMetrics {
            transient: telemetry.counter("hw.injected.transient"),
            drop: telemetry.counter("hw.injected.drop"),
            spike: telemetry.counter("hw.injected.spike"),
            hang: telemetry.counter("hw.injected.hang"),
            telemetry,
        }
    }

    fn record(&self, counter: &Counter, kind: &str, workload: &str, reason: String) {
        if self.telemetry.is_enabled() {
            counter.inc();
            self.telemetry.emit(Event::Fault {
                kind: kind.to_string(),
                workload: workload.to_string(),
                reason,
            });
        }
    }
}

impl<B: fmt::Debug> fmt::Debug for FaultyBoard<B> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("FaultyBoard")
            .field("inner", &self.inner)
            .field("plan", &self.plan)
            .finish_non_exhaustive()
    }
}

impl<B> FaultyBoard<B> {
    /// Wraps `inner` with the given plan.
    pub fn new(inner: B, plan: FaultPlan) -> FaultyBoard<B> {
        FaultyBoard {
            inner,
            plan,
            attempts: Mutex::new(HashMap::new()),
            metrics: FaultMetrics::default(),
        }
    }

    /// Attaches a telemetry handle: every injected pathology bumps its
    /// `hw.injected.*` counter and journals a `fault` event. Costs
    /// nothing when `telemetry` is disabled.
    pub fn with_telemetry(mut self, telemetry: Telemetry) -> FaultyBoard<B> {
        self.metrics = FaultMetrics::new(telemetry);
        self
    }

    /// The fault plan in force.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// The wrapped board.
    pub fn inner(&self) -> &B {
        &self.inner
    }

    /// Next attempt number for `name` (1-based).
    fn bump(&self, name: &str) -> u64 {
        let mut map = self
            .attempts
            .lock()
            .unwrap_or_else(|poison| poison.into_inner());
        let n = map.entry(name.to_string()).or_insert(0);
        *n += 1;
        *n
    }

    /// One measurement of `name` under the fault plan: a hang, drop or
    /// transient fault may come first, then `measure` runs on the wrapped
    /// board and a spike may inflate its cycles.
    fn inject(
        &self,
        name: &str,
        measure: impl FnOnce() -> Result<PerfCounters, MeasureError>,
    ) -> Result<PerfCounters, MeasureError> {
        let attempt = self.bump(name);
        if self.plan.hang_rate > 0.0 && self.plan.roll(b'h', name, attempt) < self.plan.hang_rate {
            self.metrics.record(
                &self.metrics.hang,
                "injected-hang",
                name,
                format!(
                    "injected {}ms hang (attempt {attempt})",
                    self.plan.hang.as_millis()
                ),
            );
            std::thread::sleep(self.plan.hang);
        }
        // Drops are per-name (attempt-independent): the board can never
        // measure this workload, so retries must not clear the fault.
        if self.plan.drop_rate > 0.0 && self.plan.roll(b'd', name, 0) < self.plan.drop_rate {
            let reason = format!("counters for {name} never arrived");
            self.metrics
                .record(&self.metrics.drop, "injected-drop", name, reason.clone());
            return Err(MeasureError::Dropped(reason));
        }
        if self.plan.transient_rate > 0.0
            && self.plan.roll(b't', name, attempt) < self.plan.transient_rate
        {
            let reason = format!("injected transient fault on {name} (attempt {attempt})");
            self.metrics.record(
                &self.metrics.transient,
                "injected-transient",
                name,
                reason.clone(),
            );
            return Err(MeasureError::Transient(reason));
        }
        let mut counters = measure()?;
        if self.plan.spike_rate > 0.0 && self.plan.roll(b's', name, attempt) < self.plan.spike_rate
        {
            counters.cycles = (counters.cycles as f64 * self.plan.spike_magnitude) as u64;
            self.metrics.record(
                &self.metrics.spike,
                "injected-spike",
                name,
                format!(
                    "injected {}x cycle spike (attempt {attempt})",
                    self.plan.spike_magnitude
                ),
            );
        }
        Ok(counters)
    }
}

impl<B: HardwarePlatform> HardwarePlatform for FaultyBoard<B> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn measure(&self, workload: &Workload) -> Result<PerfCounters, MeasureError> {
        self.inject(&workload.name, || self.inner.measure(workload))
    }

    fn measure_trace(
        &self,
        name: &str,
        trace: &TraceBuffer,
        uninit_data: bool,
    ) -> Result<PerfCounters, MeasureError> {
        let trace = CompactTrace::from_records(trace.records())
            .map_err(|e| MeasureError::Internal(e.into()))?;
        self.measure_compact(name, &trace, uninit_data)
    }

    fn measure_compact(
        &self,
        name: &str,
        trace: &CompactTrace,
        uninit_data: bool,
    ) -> Result<PerfCounters, MeasureError> {
        self.inject(name, || {
            self.inner.measure_compact(name, trace, uninit_data)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ReferenceBoard;
    use racesim_kernels::{microbench_suite, Scale};

    fn workload() -> Workload {
        microbench_suite(Scale::TINY).into_iter().next().unwrap()
    }

    #[test]
    fn worker_plans_are_deterministic_and_distinct() {
        let base = FaultPlan::aggressive(42);
        // Worker 0 is the identity: an in-process campaign and the
        // coordinator's own slot share the base schedule.
        assert_eq!(base.for_worker(0), base);
        // Other slots differ only in seed, deterministically.
        let w1 = base.for_worker(1);
        let w2 = base.for_worker(2);
        assert_eq!(w1, base.for_worker(1));
        assert_ne!(w1.seed, base.seed);
        assert_ne!(w1.seed, w2.seed);
        assert_eq!(w1.transient_rate, base.transient_rate);
        assert_eq!(w1.hang, base.hang);
        // The derived seeds actually change the schedule.
        assert_ne!(base.roll(0, "stream_copy", 0), w1.roll(0, "stream_copy", 0));
    }

    #[test]
    fn profiles_reconstruct_the_exact_plan() {
        assert_eq!(FaultPlan::from_profile("none", 9).unwrap(), None);
        assert_eq!(
            FaultPlan::from_profile("transient", 9).unwrap(),
            Some(FaultPlan::transient(9, 0.10))
        );
        assert_eq!(
            FaultPlan::from_profile("aggressive", 9).unwrap(),
            Some(FaultPlan::aggressive(9))
        );
        assert!(FaultPlan::from_profile("chaotic", 9).is_err());
    }

    #[test]
    fn no_faults_means_transparent() {
        let w = workload();
        let plain = ReferenceBoard::firefly_a53();
        let wrapped = FaultyBoard::new(ReferenceBoard::firefly_a53(), FaultPlan::none());
        assert_eq!(plain.measure(&w).unwrap(), wrapped.measure(&w).unwrap());
        assert_eq!(plain.name(), wrapped.name());
    }

    #[test]
    fn transient_faults_clear_on_retry_and_are_seed_deterministic() {
        let w = workload();
        // A rate this high must fail at least once in 40 attempts; the
        // per-attempt draw must also let at least one attempt through.
        let run = |seed| {
            let b = FaultyBoard::new(
                ReferenceBoard::firefly_a53(),
                FaultPlan::transient(seed, 0.5),
            );
            (0..40)
                .map(|_| b.measure(&w).is_ok())
                .collect::<Vec<bool>>()
        };
        let a = run(7);
        assert!(a.iter().any(|ok| *ok), "some attempts succeed");
        assert!(a.iter().any(|ok| !*ok), "some attempts fail");
        assert_eq!(a, run(7), "same seed, same schedule");
        assert_ne!(a, run(8), "different seed, different schedule");
    }

    #[test]
    fn dropped_workloads_fail_on_every_attempt() {
        let suite = microbench_suite(Scale::TINY);
        let b = FaultyBoard::new(
            ReferenceBoard::firefly_a53(),
            FaultPlan {
                drop_rate: 0.3,
                ..FaultPlan::transient(11, 0.0)
            },
        );
        let mut dropped = 0;
        for w in &suite {
            let first = b.measure(w).is_err();
            for _ in 0..3 {
                assert_eq!(
                    b.measure(w).is_err(),
                    first,
                    "{}: drops must be persistent per workload",
                    w.name
                );
            }
            if first {
                dropped += 1;
                assert!(matches!(b.measure(w), Err(MeasureError::Dropped(_))));
            }
        }
        assert!(dropped > 0, "a 30% drop rate must hit some workload");
        assert!(dropped < suite.len(), "and must spare some");
    }

    #[test]
    fn spikes_corrupt_the_cycle_count_without_failing() {
        let w = workload();
        let clean = ReferenceBoard::firefly_a53().measure(&w).unwrap();
        let b = FaultyBoard::new(
            ReferenceBoard::firefly_a53(),
            FaultPlan {
                spike_rate: 1.0,
                spike_magnitude: 10.0,
                ..FaultPlan::none()
            },
        );
        let spiked = b.measure(&w).unwrap();
        assert_eq!(spiked.instructions, clean.instructions);
        assert!(
            spiked.cycles > clean.cycles * 5,
            "{} !> 5 * {}",
            spiked.cycles,
            clean.cycles
        );
    }

    #[test]
    fn hangs_sleep_but_still_answer() {
        let w = workload();
        let b = FaultyBoard::new(
            ReferenceBoard::firefly_a53(),
            FaultPlan {
                hang_rate: 1.0,
                hang: Duration::from_millis(30),
                ..FaultPlan::none()
            },
        );
        let t0 = std::time::Instant::now();
        assert!(b.measure(&w).is_ok());
        assert!(t0.elapsed() >= Duration::from_millis(30));
    }
}
