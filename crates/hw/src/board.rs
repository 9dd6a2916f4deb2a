//! The reference board and its hidden configurations.

use crate::counters::PerfCounters;
use crate::effects::SystemEffects;
use crate::HardwarePlatform;
use racesim_decoder::Decoder;
use racesim_kernels::{emu::EmuError, Workload};
use racesim_mem::{IndexHash, PrefetchWhere, PrefetcherConfig, TagAccess, TlbConfig};
use racesim_sim::{Platform, SimError, SimOptions, Simulator};
use racesim_telemetry::{Counter, Histogram, Telemetry};
use racesim_trace::{CompactTrace, TraceBuffer};
use racesim_uarch::branch::{DirPredictorConfig, IndirectPredictorConfig};
use std::collections::HashSet;
use std::fmt;

/// Errors from running a workload on the board.
#[derive(Debug)]
pub enum MeasureError {
    /// The workload failed to execute.
    Emulation(EmuError),
    /// The internal reference model failed (indicates a board bug).
    Internal(SimError),
    /// A transient measurement fault (counter glitch, bus hiccup, OS
    /// interference): a retry may succeed.
    Transient(String),
    /// The measurement was dropped — the counters never arrived, and
    /// retries will not change that.
    Dropped(String),
}

impl MeasureError {
    /// Whether a retry of the same measurement may succeed.
    pub fn is_transient(&self) -> bool {
        matches!(self, MeasureError::Transient(_))
    }
}

impl fmt::Display for MeasureError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MeasureError::Emulation(e) => write!(f, "workload execution failed: {e}"),
            MeasureError::Internal(e) => write!(f, "reference model failure: {e}"),
            MeasureError::Transient(r) => write!(f, "transient measurement fault: {r}"),
            MeasureError::Dropped(r) => write!(f, "measurement dropped: {r}"),
        }
    }
}

impl std::error::Error for MeasureError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            MeasureError::Emulation(e) => Some(e),
            MeasureError::Internal(e) => Some(e),
            MeasureError::Transient(_) | MeasureError::Dropped(_) => None,
        }
    }
}

impl From<EmuError> for MeasureError {
    fn from(e: EmuError) -> Self {
        MeasureError::Emulation(e)
    }
}

/// A development board exposing two reference cores, analogous to the
/// paper's Firefly RK3399.
///
/// Construct with [`ReferenceBoard::firefly_a53`] (in-order, "little"
/// cluster) or [`ReferenceBoard::firefly_a72`] (out-of-order, "big"
/// cluster). The underlying configuration is hidden; only counters are
/// observable, plus [`ReferenceBoard::oracle_platform`] for *post-hoc
/// analysis only* (a real board has no such accessor — nothing in the
/// tuning path may use it).
#[derive(Debug)]
pub struct ReferenceBoard {
    name: String,
    hidden: Platform,
    effects: SystemEffects,
    metrics: BoardMetrics,
}

/// Telemetry handles resolved once at attach time; dead (free) when the
/// board has no telemetry.
#[derive(Debug, Default)]
struct BoardMetrics {
    telemetry: Telemetry,
    measurements: Counter,
    measure_us: Histogram,
}

impl BoardMetrics {
    fn new(telemetry: Telemetry) -> BoardMetrics {
        BoardMetrics {
            measurements: telemetry.counter("hw.measurements"),
            measure_us: telemetry.histogram("hw.measure_us"),
            telemetry,
        }
    }
}

/// The hidden "true" A53 silicon: every undisclosed parameter set to a
/// specific value, several outside the candidate grids offered to the
/// tuner (larger predictor, off-grid prefetcher), plus a TLB.
fn hidden_a53() -> Platform {
    let mut p = Platform::a53_like();
    p.name = "hidden-cortex-a53".to_string();
    p.core.frontend.depth = 4;
    p.core.branch.direction = DirPredictorConfig::Tournament {
        table_bits: 13,
        history_bits: 9,
    };
    p.core.branch.indirect = IndirectPredictorConfig::PathHistory {
        table_bits: 9,
        history_bits: 8,
    };
    p.core.branch.btb_entries = 256;
    p.core.branch.btb_ways = 4;
    p.core.branch.ras_entries = 8;
    p.core.branch.mispredict_penalty = 9;
    p.core.branch.btb_miss_penalty = 2;
    p.core.lat.int_div = 13;
    p.core.lat.fp_div = 25;
    p.core.lat.fp_cvt = 5;
    p.core.inorder.store_buffer = 6;
    p.mem.l1d.mshrs = 3;
    p.mem.l1d.latency = 3;
    p.mem.l2.latency = 17;
    p.mem.l2.tag_access = TagAccess::Serial;
    p.mem.l2.hash = IndexHash::Xor;
    p.mem.l2.mshrs = 6;
    p.mem.dram.latency = 180;
    p.mem.tlb = Some(TlbConfig {
        entries: 48,
        page_bytes: 4096,
        miss_penalty: 28,
    });
    p.mem.prefetcher = PrefetcherConfig::Stride {
        table_entries: 32,
        degree: 3,
    };
    p.mem.prefetch_where = PrefetchWhere::L1;
    p.mem.prefetch_on_prefetch_hit = true;
    p
}

/// The hidden "true" A72 silicon.
fn hidden_a72() -> Platform {
    let mut p = Platform::a72_like();
    p.name = "hidden-cortex-a72".to_string();
    p.core.frontend.depth = 5;
    p.core.branch.direction = DirPredictorConfig::Tournament {
        table_bits: 14,
        history_bits: 11,
    };
    p.core.branch.indirect = IndirectPredictorConfig::PathHistory {
        table_bits: 11,
        history_bits: 9,
    };
    p.core.branch.btb_entries = 1024;
    p.core.branch.btb_ways = 4;
    p.core.branch.ras_entries = 16;
    p.core.branch.mispredict_penalty = 13;
    p.core.branch.btb_miss_penalty = 2;
    p.core.lat.int_div = 11;
    p.core.lat.fp_div = 18;
    p.core.ooo.iq_entries = 44;
    p.core.ooo.sq_entries = 12;
    p.core.ooo.stlf_latency = 5;
    p.mem.l1d.mshrs = 6;
    p.mem.l2.latency = 21;
    p.mem.l2.tag_access = TagAccess::Serial;
    p.mem.l2.hash = IndexHash::Xor;
    p.mem.l2.mshrs = 11;
    p.mem.dram.latency = 190;
    p.mem.tlb = Some(TlbConfig {
        entries: 32,
        page_bytes: 4096,
        miss_penalty: 35,
    });
    p.mem.prefetcher = PrefetcherConfig::Stride {
        table_entries: 128,
        degree: 5,
    };
    p.mem.prefetch_where = PrefetchWhere::L1;
    p.mem.prefetch_on_prefetch_hit = true;
    p
}

impl ReferenceBoard {
    /// The in-order "little" cluster core (Cortex-A53 analogue, 1.51 GHz).
    pub fn firefly_a53() -> ReferenceBoard {
        ReferenceBoard {
            name: "firefly-rk3399 cortex-a53 @1.51GHz".to_string(),
            hidden: hidden_a53(),
            effects: SystemEffects::little_cluster(),
            metrics: BoardMetrics::default(),
        }
    }

    /// The out-of-order "big" cluster core (Cortex-A72 analogue,
    /// 1.99 GHz).
    pub fn firefly_a72() -> ReferenceBoard {
        ReferenceBoard {
            name: "firefly-rk3399 cortex-a72 @1.99GHz".to_string(),
            hidden: hidden_a72(),
            effects: SystemEffects::big_cluster(),
            metrics: BoardMetrics::default(),
        }
    }

    /// A board with custom effects (differential testing).
    pub fn with_effects(mut self, effects: SystemEffects) -> ReferenceBoard {
        self.effects = effects;
        self
    }

    /// Attaches a telemetry handle: every measurement records its wall
    /// time in the `hw.measure_us` histogram and bumps
    /// `hw.measurements`. Costs nothing when `telemetry` is disabled.
    pub fn with_telemetry(mut self, telemetry: Telemetry) -> ReferenceBoard {
        self.metrics = BoardMetrics::new(telemetry);
        self
    }

    /// The system effects this board applies on top of its hidden timing
    /// (public, unlike the hidden configuration: a user can observe timer
    /// frequency and measurement noise from outside the box, and the
    /// analyzer's noise-versus-significance lint needs them).
    pub fn effects(&self) -> &SystemEffects {
        &self.effects
    }

    /// The hidden configuration, exposed **for post-hoc analysis only**.
    ///
    /// A real board offers no such introspection; the validation pipeline
    /// never reads it. Benchmarks use it to report the
    /// specification-error floor.
    pub fn oracle_platform(&self) -> &Platform {
        &self.hidden
    }
}

impl HardwarePlatform for ReferenceBoard {
    fn name(&self) -> &str {
        &self.name
    }

    fn measure(&self, workload: &Workload) -> Result<PerfCounters, MeasureError> {
        let trace = workload.compact_trace()?;
        self.measure_compact(&workload.name, &trace, workload.uninit_data)
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
        let sw = self.metrics.telemetry.stopwatch();
        // First-touch behaviour on uninitialised arrays: the kernel's
        // zero-fill leaves fresh pages cache-warm on real hardware (the
        // paper observed hits where the simulator reported misses), at the
        // price of a page-fault cost per fresh page.
        let options = SimOptions {
            prefill_code: false,
            prefill_data: false,
            prefill_data_l2: uninit_data,
        };
        let sim = Simulator::with_decoder(self.hidden.clone(), Decoder::new(), options);
        let stats = sim.run_compact(trace).map_err(MeasureError::Internal)?;

        let mut cycles = self.effects.inflate_cycles(stats.core.cycles);
        if uninit_data && self.effects.page_touch_cost > 0 {
            let pages: HashSet<u64> = trace
                .iter()
                .filter_map(|r| r.ea())
                .map(|ea| ea >> 12)
                .collect();
            cycles += pages.len() as u64 * self.effects.page_touch_cost;
        }
        cycles = (cycles as f64 * self.effects.noise_factor(name)).round() as u64;

        if self.metrics.telemetry.is_enabled() {
            self.metrics.measurements.inc();
            self.metrics.measure_us.record(sw.elapsed_us());
        }
        Ok(PerfCounters {
            instructions: stats.core.instructions,
            cycles,
            branch_misses: stats.core.branch.mispredicts,
            l1d_misses: stats.mem.l1d.misses,
            l2_misses: stats.mem.l2.misses,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use racesim_kernels::{microbench_suite, microbench_suite_initialized, Scale};

    fn workload(name: &str, init: bool) -> Workload {
        let suite = if init {
            microbench_suite_initialized(Scale::TINY)
        } else {
            microbench_suite(Scale::TINY)
        };
        suite.into_iter().find(|w| w.name == name).unwrap()
    }

    #[test]
    fn boards_measure_all_microbenchmarks() {
        let a53 = ReferenceBoard::firefly_a53();
        for w in microbench_suite(Scale::TINY) {
            let c = a53
                .measure(&w)
                .unwrap_or_else(|e| panic!("{}: {e}", w.name));
            assert!(c.instructions > 0);
            assert!(c.cycles > 0);
            let cpi = c.cpi();
            assert!(cpi > 0.3 && cpi < 400.0, "{}: cpi {cpi}", w.name);
        }
    }

    #[test]
    fn measurements_are_deterministic() {
        let a72 = ReferenceBoard::firefly_a72();
        let w = workload("ED1", false);
        let c1 = a72.measure(&w).unwrap();
        let c2 = a72.measure(&w).unwrap();
        assert_eq!(c1, c2);
    }

    #[test]
    fn a72_beats_a53_on_ilp_workloads() {
        let a53 = ReferenceBoard::firefly_a53();
        let a72 = ReferenceBoard::firefly_a72();
        let w = workload("EI", false);
        let c53 = a53.measure(&w).unwrap();
        let c72 = a72.measure(&w).unwrap();
        assert!(
            c72.cpi() < c53.cpi(),
            "the wide core wins on independent ops: {} vs {}",
            c72.cpi(),
            c53.cpi()
        );
    }

    #[test]
    fn uninitialised_arrays_report_cache_hits_on_the_board() {
        // The paper: accesses to an uninitialised array "are considered a
        // cache miss by our model but are reported as hits on real
        // hardware" — the kernel's zero-fill leaves fresh pages warm. The
        // board therefore reports (almost) no data misses for MM, while
        // the initialised variant misses (M_Dyn: random accesses that no
        // prefetcher can cover); the uninit run pays first-touch page
        // costs instead.
        let at = |init: bool| {
            let suite = if init {
                microbench_suite_initialized(Scale::divide_by(64))
            } else {
                microbench_suite(Scale::divide_by(64))
            };
            suite.into_iter().find(|w| w.name == "M_Dyn").unwrap()
        };
        let a53 = ReferenceBoard::firefly_a53();
        let c_uninit = a53.measure(&at(false)).unwrap();
        let c_init = a53.measure(&at(true)).unwrap();
        assert!(
            c_uninit.l2_misses * 5 < c_init.l2_misses.max(1),
            "first-touch warming keeps fresh pages in the L2: {} vs {}",
            c_uninit.l2_misses,
            c_init.l2_misses
        );
        assert!(
            c_uninit.cycles != c_init.cycles,
            "page-touch costs still differentiate the runs"
        );
    }

    #[test]
    fn noise_and_system_effects_shift_cycles_slightly() {
        let w = workload("CCa", false);
        let with = ReferenceBoard::firefly_a53();
        let without = ReferenceBoard::firefly_a53().with_effects(SystemEffects::none());
        let c_with = with.measure(&w).unwrap();
        let c_without = without.measure(&w).unwrap();
        let ratio = c_with.cycles as f64 / c_without.cycles as f64;
        assert!(ratio != 1.0, "effects must do something");
        assert!(ratio > 0.9 && ratio < 1.1, "but stay small: {ratio}");
    }

    #[test]
    fn oracle_platform_is_not_the_public_preset() {
        let a53 = ReferenceBoard::firefly_a53();
        assert_ne!(*a53.oracle_platform(), Platform::a53_like());
        let a72 = ReferenceBoard::firefly_a72();
        assert_ne!(*a72.oracle_platform(), Platform::a72_like());
    }
}
