//! The cost function every race uses: `validate`, `tune`, `replay`, the
//! distributed workers and the benchmark all cost a configuration through
//! [`LazySuiteCost`].
//!
//! It holds one recorded trace per benchmark (generated once, shared by
//! `Arc`) and one measurement slot per benchmark. `validate` builds it
//! from a [`PreparedSuite`] with every slot already filled, so it never
//! touches a board. `tune` builds it with empty slots and measures each
//! benchmark **on first use inside the race**, so a board fault costs one
//! benchmark instead of the whole campaign; board pathologies are
//! translated into the racing layer's failure taxonomy:
//!
//! * [`MeasureError::Transient`] → [`EvalError::Transient`] — the race
//!   retries with bounded backoff;
//! * any other measurement failure → [`EvalError::Instance`] — the race
//!   quarantines the benchmark and stops spending budget on it;
//! * a simulator failure or non-finite cost → [`EvalError::Config`] — the
//!   candidate configuration is eliminated with a logged reason.
//!
//! A successful measurement is cached, so each benchmark is paid for once
//! per run — the paper's "generate each trace once and reuse it"
//! discipline, extended to the measurements themselves.

use crate::params::apply;
use crate::validator::{CostMetric, PreparedSuite};
use racesim_decoder::Decoder;
use racesim_hw::{HardwarePlatform, MeasureError, PerfCounters};
use racesim_kernels::Workload;
use racesim_race::{Configuration, EvalError, ParamSpace, TryCostFn};
use racesim_sim::{Platform, SimOptions, Simulator};
use racesim_telemetry::{Event, Telemetry};
use racesim_trace::CompactTrace;
use std::sync::{Arc, Mutex};

/// A [`TryCostFn`] that simulates candidates against lazily-measured
/// hardware counters. Owns its board (via `Arc`) so it can sit behind a
/// [`racesim_race::Watchdog`], whose evaluation threads need `'static`.
#[derive(Debug)]
pub struct LazySuiteCost {
    base: Platform,
    decoder: Decoder,
    metric: CostMetric,
    // `None` for a pre-measured suite, whose slots are all filled.
    board: Option<Arc<dyn HardwarePlatform>>,
    names: Vec<String>,
    categories: Vec<racesim_kernels::Category>,
    traces: Vec<Arc<CompactTrace>>,
    uninit: Vec<bool>,
    // One slot per benchmark; the lock is held across the measurement so
    // a parallel race serialises board access (one board, one measurement
    // at a time) and never measures the same benchmark twice.
    hw: Mutex<Vec<Option<PerfCounters>>>,
    telemetry: Telemetry,
}

impl LazySuiteCost {
    /// Records the traces for `workloads` (failing fast on emulation
    /// errors — those are bugs, not board faults) without touching the
    /// board.
    ///
    /// # Errors
    ///
    /// Propagates trace-recording failures.
    pub fn new(
        board: Arc<dyn HardwarePlatform>,
        workloads: &[Workload],
        base: Platform,
        decoder: Decoder,
        metric: CostMetric,
    ) -> Result<LazySuiteCost, MeasureError> {
        let mut names = Vec::new();
        let mut categories = Vec::new();
        let mut traces = Vec::new();
        let mut uninit = Vec::new();
        for w in workloads {
            traces.push(Arc::new(w.compact_trace()?));
            names.push(w.name.clone());
            categories.push(w.category);
            uninit.push(w.uninit_data);
        }
        let slots = vec![None; names.len()];
        Ok(LazySuiteCost {
            base,
            decoder,
            metric,
            board: Some(board),
            names,
            categories,
            traces,
            uninit,
            hw: Mutex::new(slots),
            telemetry: Telemetry::disabled(),
        })
    }

    /// The cost over a suite [`PreparedSuite::prepare`] has already
    /// recorded and measured: the traces are shared and every
    /// measurement slot is filled, so no board is ever consulted.
    pub(crate) fn from_prepared(
        suite: &PreparedSuite,
        base: Platform,
        decoder: Decoder,
        metric: CostMetric,
    ) -> LazySuiteCost {
        LazySuiteCost {
            base,
            decoder,
            metric,
            board: None,
            names: suite.names.clone(),
            categories: suite.categories.clone(),
            traces: suite.traces.clone(),
            uninit: vec![false; suite.len()],
            hw: Mutex::new(suite.hw.iter().copied().map(Some).collect()),
            telemetry: Telemetry::disabled(),
        }
    }

    /// Attaches a telemetry handle: every evaluation journals an
    /// `evaluation` event (workload, wall time, cost), every measurement
    /// attempt a `measurement` event, and every classified failure a
    /// `fault` event. The per-candidate simulators inherit the handle,
    /// so `sim.*` metrics cover the tuning loop's simulation work. Costs
    /// nothing when `telemetry` is disabled.
    pub fn with_telemetry(mut self, telemetry: Telemetry) -> LazySuiteCost {
        self.telemetry = telemetry;
        self
    }

    /// Number of benchmarks (the race's instance count).
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// Whether the suite is empty.
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }

    /// Benchmark name of `instance`.
    pub fn name(&self, instance: usize) -> &str {
        &self.names[instance]
    }

    /// Benchmark category of `instance`.
    pub fn category(&self, instance: usize) -> racesim_kernels::Category {
        self.categories[instance]
    }

    /// The counters measured so far (`None` = never successfully
    /// measured, e.g. quarantined before first success).
    pub fn measured(&self) -> Vec<Option<PerfCounters>> {
        self.hw
            .lock()
            .unwrap_or_else(|poison| poison.into_inner())
            .clone()
    }

    /// The cached counters for `instance`, measuring on first use.
    fn counters(&self, instance: usize) -> Result<PerfCounters, EvalError> {
        let mut slots = self.hw.lock().unwrap_or_else(|poison| poison.into_inner());
        if let Some(c) = slots[instance] {
            return Ok(c);
        }
        let board = self
            .board
            .as_ref()
            .expect("a pre-measured suite has every slot filled");
        let sw = self.telemetry.stopwatch();
        let outcome = board.measure_compact(
            &self.names[instance],
            &self.traces[instance],
            self.uninit[instance],
        );
        if self.telemetry.is_enabled() {
            self.telemetry.emit(Event::Measurement {
                workload: self.names[instance].clone(),
                micros: sw.elapsed_us(),
                ok: outcome.is_ok(),
            });
        }
        match outcome {
            Ok(c) => {
                slots[instance] = Some(c);
                Ok(c)
            }
            Err(e) if e.is_transient() => Err(self.fault(
                instance,
                "transient",
                EvalError::Transient,
                format!("measuring {}: {e}", self.names[instance]),
            )),
            Err(e) => Err(self.fault(
                instance,
                "instance",
                EvalError::Instance,
                format!("measuring {}: {e}", self.names[instance]),
            )),
        }
    }

    /// Journals a classified failure and wraps it in its [`EvalError`].
    fn fault(
        &self,
        instance: usize,
        kind: &str,
        wrap: fn(String) -> EvalError,
        reason: String,
    ) -> EvalError {
        if self.telemetry.is_enabled() {
            self.telemetry.emit(Event::Fault {
                kind: kind.to_string(),
                workload: self.names[instance].clone(),
                reason: reason.clone(),
            });
        }
        wrap(reason)
    }
}

impl TryCostFn for LazySuiteCost {
    fn try_cost(
        &self,
        cfg: &Configuration,
        space: &ParamSpace,
        instance: usize,
    ) -> Result<f64, EvalError> {
        let hw = self.counters(instance)?;
        let sw = self.telemetry.stopwatch();
        let platform = apply(space, cfg, &self.base);
        let sim = Simulator::with_decoder(platform, self.decoder, SimOptions::default())
            .with_telemetry(self.telemetry.clone());
        let stats = sim.run_compact(&self.traces[instance]).map_err(|e| {
            self.fault(
                instance,
                "config",
                EvalError::Config,
                format!(
                    "simulator rejected the configuration on {}: {e}",
                    self.names[instance]
                ),
            )
        })?;
        let cost = self.metric.evaluate(
            stats.cpi(),
            hw.cpi(),
            stats.core.branch_mpki(),
            hw.branch_mpki(),
        );
        if cost.is_finite() {
            if self.telemetry.is_enabled() {
                self.telemetry.emit(Event::Evaluation {
                    workload: self.names[instance].clone(),
                    micros: sw.elapsed_us(),
                    cost,
                });
            }
            Ok(cost)
        } else {
            Err(self.fault(
                instance,
                "config",
                EvalError::Config,
                format!("non-finite cost on {}", self.names[instance]),
            ))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::{best_guess, build_space};
    use racesim_hw::{FaultPlan, FaultyBoard, ReferenceBoard};
    use racesim_kernels::{microbench_suite_initialized, Scale};
    use racesim_race::{RacingTuner, TunerSettings};
    use racesim_uarch::CoreKind;

    fn suite() -> Vec<Workload> {
        microbench_suite_initialized(Scale::TINY)
    }

    fn cost_with(board: Arc<dyn HardwarePlatform>) -> LazySuiteCost {
        LazySuiteCost::new(
            board,
            &suite(),
            Platform::a53_like(),
            Decoder::new(),
            CostMetric::CpiError,
        )
        .expect("traces record")
    }

    #[test]
    fn measures_lazily_and_caches() {
        let cost = cost_with(Arc::new(ReferenceBoard::firefly_a53()));
        assert!(cost.measured().iter().all(Option::is_none), "lazy");
        let space = build_space(CoreKind::InOrder, crate::Revision::Fixed);
        let cfg = best_guess(&space, CoreKind::InOrder);
        let c0 = cost.try_cost(&cfg, &space, 0).expect("clean board");
        assert!(c0.is_finite());
        assert_eq!(
            cost.measured().iter().filter(|m| m.is_some()).count(),
            1,
            "only the evaluated instance was measured"
        );
        // Cached: a second evaluation reproduces the cost exactly.
        assert_eq!(cost.try_cost(&cfg, &space, 0), Ok(c0));
    }

    #[test]
    fn board_faults_map_onto_the_eval_taxonomy() {
        // 100% transient rate: every measurement attempt fails transiently.
        let cost = cost_with(Arc::new(FaultyBoard::new(
            ReferenceBoard::firefly_a53(),
            FaultPlan::transient(3, 1.0),
        )));
        let space = build_space(CoreKind::InOrder, crate::Revision::Fixed);
        let cfg = best_guess(&space, CoreKind::InOrder);
        assert!(matches!(
            cost.try_cost(&cfg, &space, 0),
            Err(EvalError::Transient(_))
        ));

        // 100% drop rate: persistent board-side fault -> instance fault.
        let cost = cost_with(Arc::new(FaultyBoard::new(
            ReferenceBoard::firefly_a53(),
            FaultPlan {
                drop_rate: 1.0,
                ..FaultPlan::none()
            },
        )));
        assert!(matches!(
            cost.try_cost(&cfg, &space, 0),
            Err(EvalError::Instance(_))
        ));
    }

    #[test]
    fn an_undecodable_trace_is_a_config_fault() {
        // A clean kernel trace with an undecodable word spliced in after
        // its first half: the race must see a candidate failure, not a
        // panic, and the journal a `config` fault naming the word's pc.
        let w = &suite()[0];
        let records = w.trace().expect("kernel traces").records().to_vec();
        let (head, tail) = records.split_at(records.len() / 2);
        let bad = racesim_trace::TraceRecord::plain(0xdead0, racesim_isa::EncodedInst(0xfe));
        let spliced: Vec<_> = head.iter().chain([&bad]).chain(tail).copied().collect();
        let board = ReferenceBoard::firefly_a53();
        let suite = PreparedSuite {
            names: vec![w.name.clone()],
            categories: vec![w.category],
            traces: vec![Arc::new(CompactTrace::from_records(&spliced).unwrap())],
            hw: vec![board.measure(w).expect("clean board")],
        };
        let telemetry = Telemetry::in_memory();
        let cost = LazySuiteCost::from_prepared(
            &suite,
            Platform::a53_like(),
            Decoder::new(),
            CostMetric::CpiError,
        )
        .with_telemetry(telemetry.clone());
        let space = build_space(CoreKind::InOrder, crate::Revision::Fixed);
        let cfg = best_guess(&space, CoreKind::InOrder);
        match cost.try_cost(&cfg, &space, 0) {
            Err(EvalError::Config(reason)) => assert!(reason.contains("0xdead0"), "{reason}"),
            other => panic!("expected a config fault, got {other:?}"),
        }
        let faults: Vec<String> = telemetry
            .lines()
            .into_iter()
            .filter(|l| l.contains("\"ev\":\"fault\""))
            .collect();
        assert_eq!(faults.len(), 1, "{faults:?}");
        assert!(faults[0].contains("\"kind\":\"config\""), "{}", faults[0]);
    }

    #[test]
    fn a_tune_survives_a_moderately_faulty_board() {
        let cost = cost_with(Arc::new(FaultyBoard::new(
            ReferenceBoard::firefly_a53(),
            FaultPlan::transient(11, 0.10),
        )));
        let space = build_space(CoreKind::InOrder, crate::Revision::Fixed);
        let mut settings = TunerSettings {
            budget: 400,
            seed: 9,
            threads: 2,
            ..TunerSettings::default()
        };
        settings.race.retry = racesim_race::RetryPolicy::immediate(4);
        let result = RacingTuner::new(settings).try_tune(&space, &cost, cost.len());
        assert!(!result.aborted);
        assert!(result.best_cost.is_finite(), "{}", result.best_cost);
        assert!(result.evals_used <= 400);
    }
}
