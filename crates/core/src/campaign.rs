//! One description of a tuning campaign, shared by `racesim tune` (which
//! records it into the telemetry journal) and `racesim replay` (which
//! reconstructs it from that journal and re-runs it).
//!
//! The spec captures exactly the inputs the campaign outcome is a
//! deterministic function of: core, scale, budget, seed, thread count,
//! watchdog timeout, fault plan, and the frozen dimensions. Everything
//! else (the suite, the parameter space, the base platform, the cost
//! metric) is derived from those deterministically, the same way on both
//! sides. The model revision is pinned to [`Revision::Fixed`] — `tune`
//! always drives the fixed model.
//!
//! The race recipe itself — tuner settings, coverage-frozen dimensions
//! and telemetry — is `racing_tuner`, shared by `validate`
//! ([`Validator::run`]) and every campaign driver here.

use crate::fallible::LazySuiteCost;
use crate::latency::{estimate_latencies, LatencyEstimates};
use crate::params::{build_space, Revision};
use crate::validator::{CostMetric, Validator, ValidatorSettings};
use racesim_analyzer::coverage::CoverageMatrix;
use racesim_hw::{FaultPlan, FaultyBoard, HardwarePlatform, ReferenceBoard};
use racesim_kernels::{Scale, Workload};
use racesim_race::replay::RecordedCampaign;
use racesim_race::{
    ParamSpace, RacingTuner, TryCostFn, TuneResult, TunerSettings, Value, Watchdog,
};
use racesim_sim::Platform;
use racesim_telemetry::{Event, Telemetry};
use racesim_uarch::CoreKind;
use std::sync::Arc;
use std::time::Duration;

/// The reference board for a core.
pub fn board_for(kind: CoreKind) -> ReferenceBoard {
    match kind {
        CoreKind::InOrder => ReferenceBoard::firefly_a53(),
        CoreKind::OutOfOrder => ReferenceBoard::firefly_a72(),
    }
}

/// The core a `--core` name denotes; [`CampaignSpec::core_name`] is its
/// inverse.
///
/// # Errors
///
/// Any name other than `a53` and `a72`.
pub fn core_kind(name: &str) -> Result<CoreKind, String> {
    match name {
        "a53" => Ok(CoreKind::InOrder),
        "a72" => Ok(CoreKind::OutOfOrder),
        other => Err(format!("unknown core {other:?} (use a53 or a72)")),
    }
}

/// A dimension no benchmark in the suite can statically observe, pinned
/// at its default value.
#[derive(Debug, Clone, PartialEq)]
pub struct FrozenDim {
    /// Index of the dimension in the parameter space.
    pub index: usize,
    /// The value it is pinned at (the space's default).
    pub value: Value,
    /// What a benchmark would need to observe it.
    pub needs: String,
}

/// Coverage-based freezing: a dimension no benchmark in `suite` can
/// statically observe on `base` cannot move the cost, so it is pinned to
/// its default before any budget is spent. The dimension stays in the
/// space (the model applier reads every parameter and checkpoint
/// fingerprints must stay valid) — the sampler just never varies it.
pub fn unobserved_dimensions(
    space: &ParamSpace,
    suite: &[Workload],
    base: &Platform,
) -> Vec<FrozenDim> {
    let profiles: Vec<_> = suite
        .iter()
        .map(|w| racesim_analyzer::ir::profile(&w.name, &w.program))
        .collect();
    let matrix = CoverageMatrix::build(space, &profiles, base);
    let defaults = space.default_configuration();
    matrix
        .params
        .iter()
        .enumerate()
        .filter(|(_, p)| p.count() == 0)
        .map(|(index, p)| FrozenDim {
            index,
            value: defaults.value(index),
            needs: p.requirement.describe(),
        })
        .collect()
}

/// The race recipe: a tuner with `settings`, the `frozen` dimensions
/// pinned, journaling to `telemetry`. `validate`, `tune` and `replay`
/// all race with it.
pub(crate) fn racing_tuner(
    settings: TunerSettings,
    frozen: Vec<(usize, Value)>,
    telemetry: &Telemetry,
) -> RacingTuner {
    RacingTuner::new(settings)
        .with_telemetry(telemetry.clone())
        .with_frozen(frozen)
}

/// Everything a campaign's outcome deterministically depends on.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignSpec {
    /// Core being tuned.
    pub kind: CoreKind,
    /// Dynamic-instruction scale.
    pub scale: Scale,
    /// Racing evaluation budget.
    pub budget: u64,
    /// Tuner RNG seed.
    pub seed: u64,
    /// Evaluation threads (results are thread-count invariant; this only
    /// affects wall time).
    pub threads: usize,
    /// Spawned evaluation worker processes (0 = all in-process). Like
    /// `threads`, a non-semantic dimension: distributed evaluation is
    /// bit-identical to sequential, so replay always re-runs in-process
    /// regardless of what the recording used.
    pub workers: usize,
    /// Iteration cap for staged runs (`None` = run to completion).
    pub max_iterations: Option<usize>,
    /// Must be `false`: static pre-elimination and the static CPI bounds
    /// are gone, and [`CampaignSpec::build_stack`] refuses `true`. The
    /// field is kept only until the campaign benchmark stops naming it in
    /// a struct literal and builds the spec with `..Default::default()`.
    pub static_bounds: bool,
    /// Per-evaluation watchdog timeout in milliseconds.
    pub timeout_ms: Option<u64>,
    /// Fault-injection profile name (`none`, `transient`, `aggressive`).
    pub fault_profile: String,
    /// Fault-plan seed.
    pub fault_seed: u64,
    /// Frozen dimensions as `(parameter name, value code)` pairs, in the
    /// order they were applied.
    pub frozen: Vec<(String, String)>,
}

/// The assembled evaluation stack of a campaign: the tunable space, the
/// latency-estimated base platform and its estimates, and the (possibly
/// fault-injected) lazy suite cost function.
pub struct CampaignStack {
    /// The tunable parameter space for the spec's core.
    pub space: ParamSpace,
    /// The base platform after latency estimation (steps 1–2).
    pub base: Platform,
    /// The latency estimates plugged into `base`; a coordinator ships
    /// them to its workers so they need not probe the board again.
    pub estimates: LatencyEstimates,
    /// The workloads being raced (same order as the cost instances).
    pub suite: Vec<Workload>,
    /// The fallible cost function over the suite.
    pub cost: Arc<LazySuiteCost>,
    /// What the race evaluates: `cost`, behind a [`Watchdog`] when the
    /// spec sets a timeout. `tune`, `replay`, the worker pool's local
    /// fallback and the workers themselves all cost through this.
    pub eval: Arc<dyn TryCostFn + Send + Sync>,
}

impl std::fmt::Debug for CampaignStack {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CampaignStack")
            .field("space", &self.space)
            .field("base", &self.base)
            .field("estimates", &self.estimates)
            .field("cost", &self.cost)
            .finish_non_exhaustive()
    }
}

/// A construction convenience, and the source of `racesim tune`'s flag
/// fallbacks: the a53 at scale 1/2048, the default tuner budget and seed,
/// one thread (`tune` itself defaults to every available core),
/// in-process, no watchdog, no faults.
impl Default for CampaignSpec {
    fn default() -> CampaignSpec {
        let tuner = TunerSettings::default();
        CampaignSpec {
            kind: CoreKind::InOrder,
            scale: Scale::TINY,
            budget: tuner.budget,
            seed: tuner.seed,
            threads: tuner.threads,
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

impl CampaignSpec {
    /// The `--core` spelling of the spec's core; [`core_kind`] reads it
    /// back.
    pub fn core_name(&self) -> &'static str {
        match self.kind {
            CoreKind::InOrder => "a53",
            CoreKind::OutOfOrder => "a72",
        }
    }

    /// The journal event recording this spec (`campaign_config`).
    pub fn config_event(&self) -> Event {
        Event::CampaignConfig {
            core: self.core_name().to_string(),
            scale: self.scale.divisor(),
            faults: self.fault_profile.clone(),
            fault_seed: self.fault_seed,
            timeout_ms: self.timeout_ms.unwrap_or(0),
            threads: self.threads,
            workers: self.workers,
            max_iterations: self.max_iterations.unwrap_or(0) as u64,
        }
    }

    /// One `frozen` journal event per pinned dimension.
    pub fn frozen_events(&self) -> Vec<Event> {
        self.frozen
            .iter()
            .map(|(param, code)| Event::Frozen {
                param: param.clone(),
                code: code.clone(),
            })
            .collect()
    }

    /// Records frozen dimensions from the tuner's `(index, value)` form.
    pub fn set_frozen(&mut self, space: &ParamSpace, frozen: &[(usize, Value)]) {
        self.frozen = frozen
            .iter()
            .map(|(idx, v)| (space.params()[*idx].name.clone(), v.code()))
            .collect();
    }

    /// Rebuilds the spec from a digested journal: its first
    /// `campaign_config` (stack shape), first `campaign_start` (seed and
    /// budget) and `frozen` pairs, merged as the
    /// [`replay`](racesim_race::replay) module doc says.
    ///
    /// `max_iterations` is deliberately dropped — a staged recording is
    /// verified as a *prefix* of the full campaign the replay runs.
    ///
    /// # Errors
    ///
    /// Fails when the journal has no `campaign_start`, or predates
    /// `campaign_config` (there is not enough information to rebuild the
    /// stack), or names an unknown core or fault profile.
    pub fn from_journal(journal: &RecordedCampaign) -> Result<CampaignSpec, String> {
        let start = journal
            .start
            .ok_or_else(|| "journal contains no campaign_start event".to_string())?;
        let config = journal.config.as_ref().ok_or_else(|| {
            "journal has no campaign_config event (recorded before replay support?); \
             re-record it with a current `racesim tune --telemetry`"
                .to_string()
        })?;
        let kind = core_kind(&config.core).map_err(|e| format!("campaign_config: {e}"))?;
        // Validate the profile here so replay fails early and clearly.
        FaultPlan::from_profile(&config.faults, config.fault_seed)?;
        Ok(CampaignSpec {
            kind,
            scale: Scale::divide_by(config.scale),
            budget: start.budget as u64,
            seed: start.seed,
            threads: config.threads.max(1),
            workers: config.workers,
            max_iterations: None,
            static_bounds: false,
            timeout_ms: (config.timeout_ms != 0).then_some(config.timeout_ms),
            fault_profile: config.faults.clone(),
            fault_seed: config.fault_seed,
            frozen: journal.frozen.clone(),
        })
    }

    /// The reference board for the spec's core.
    pub fn board(&self) -> ReferenceBoard {
        board_for(self.kind)
    }

    fn validator_settings(&self) -> ValidatorSettings {
        ValidatorSettings {
            kind: self.kind,
            revision: Revision::Fixed,
            scale: self.scale,
            tuner: self.tuner_settings(),
            metric: CostMetric::CpiError,
        }
    }

    /// The tuner settings this spec denotes.
    pub fn tuner_settings(&self) -> TunerSettings {
        TunerSettings {
            budget: self.budget,
            seed: self.seed,
            threads: self.threads,
            max_iterations: self.max_iterations,
            ..TunerSettings::default()
        }
    }

    /// Assembles the evaluation stack: probes the clean board's
    /// latencies (step 2), then [`CampaignSpec::build_stack_from`].
    ///
    /// # Errors
    ///
    /// Refuses `static_bounds` before any work, and propagates
    /// probe/measurement failures and unknown fault profiles.
    pub fn build_stack(&self, telemetry: &Telemetry) -> Result<CampaignStack, String> {
        self.refuse_static_bounds()?;
        let estimates = estimate_latencies(&self.board()).map_err(|e| e.to_string())?;
        self.build_stack_from(estimates, telemetry)
    }

    /// Assembles the evaluation stack from latency estimates probed
    /// earlier (by this process or, for a worker, by its coordinator):
    /// board (fault-injected if the spec says so), base platform with
    /// `estimates` plugged in, parameter space, and the lazy suite cost —
    /// all threaded through `telemetry` — wrapped in the spec's watchdog.
    /// Runs no probe.
    ///
    /// # Errors
    ///
    /// Refuses `static_bounds`, and propagates unknown fault profiles and
    /// suite set-up failures.
    pub fn build_stack_from(
        &self,
        estimates: LatencyEstimates,
        telemetry: &Telemetry,
    ) -> Result<CampaignStack, String> {
        self.refuse_static_bounds()?;
        let board = self.board();
        let settings = self.validator_settings();
        let v = Validator::new(&board, settings.clone());
        let base = v.base_platform_from(&estimates);
        let space = build_space(self.kind, settings.revision);
        let decoder = v.decoder();
        let suite = v.suite();
        let tune_board: Arc<dyn HardwarePlatform> =
            match FaultPlan::from_profile(&self.fault_profile, self.fault_seed)? {
                Some(plan) => Arc::new(
                    FaultyBoard::new(self.board().with_telemetry(telemetry.clone()), plan)
                        .with_telemetry(telemetry.clone()),
                ),
                None => Arc::new(self.board().with_telemetry(telemetry.clone())),
            };
        let cost = Arc::new(
            LazySuiteCost::new(tune_board, &suite, base.clone(), decoder, settings.metric)
                .map_err(|e| e.to_string())?
                .with_telemetry(telemetry.clone()),
        );
        let eval: Arc<dyn TryCostFn + Send + Sync> = match self.timeout_ms {
            Some(ms) => Arc::new(Watchdog::new(
                Arc::clone(&cost) as _,
                Duration::from_millis(ms),
            )),
            None => Arc::clone(&cost) as _,
        };
        Ok(CampaignStack {
            space,
            base,
            estimates,
            suite,
            cost,
            eval,
        })
    }

    fn refuse_static_bounds(&self) -> Result<(), String> {
        if self.static_bounds {
            return Err(
                "static_bounds must be false: static pre-elimination and the static \
                        CPI bounds were removed (the field is kept only for source \
                        compatibility)"
                    .to_string(),
            );
        }
        Ok(())
    }

    /// Decodes the spec's frozen dimensions against `space`.
    ///
    /// # Errors
    ///
    /// Rejects unknown parameters and codes that do not fit the domain.
    pub fn decode_frozen(&self, space: &ParamSpace) -> Result<Vec<(usize, Value)>, String> {
        self.frozen
            .iter()
            .map(|(param, code)| {
                let idx = space
                    .try_index_of(param)
                    .ok_or_else(|| format!("frozen parameter {param:?} is not in the space"))?;
                let v = space.params()[idx].domain.value_of(code);
                Ok((idx, v.map_err(|e| format!("frozen {param}: {e}"))?))
            })
            .collect()
    }

    /// The campaign's tuner over `stack`: the race recipe with the
    /// spec's settings, frozen dimensions and `telemetry`. `tune` (after
    /// [`CampaignSpec::set_frozen`]) and `replay` both race with it, so
    /// replay verifies the code `tune` runs. Its campaign identity (core,
    /// scale, fault plan, watchdog: what a cached cost depends on beyond
    /// the seed; and the budget, which a resume would otherwise inherit
    /// from the checkpoint) keeps a resume from mixing two campaigns;
    /// threads, workers and the iteration cap are left out because they
    /// never change a cost.
    ///
    /// # Errors
    ///
    /// Rejects frozen codes that do not decode against `stack.space`.
    pub fn tuner(
        &self,
        stack: &CampaignStack,
        telemetry: &Telemetry,
    ) -> Result<RacingTuner, String> {
        let campaign = format!(
            "core={} scale=1/{} budget={} faults={} fault_seed={} timeout_ms={}",
            self.core_name(),
            self.scale.divisor(),
            self.budget,
            self.fault_profile,
            self.fault_seed,
            self.timeout_ms.unwrap_or(0)
        );
        Ok(racing_tuner(
            self.tuner_settings(),
            self.decode_frozen(&stack.space)?,
            telemetry,
        )
        .with_campaign(campaign))
    }

    /// Runs the campaign this spec describes from scratch and returns
    /// the tuner result. Used by `racesim replay` to produce the fresh
    /// journal that is verified against the recording.
    ///
    /// # Errors
    ///
    /// Propagates stack-assembly failures and bad frozen codes.
    pub fn run(&self, telemetry: &Telemetry) -> Result<TuneResult, String> {
        let stack = self.build_stack(telemetry)?;
        let tuner = self.tuner(&stack, telemetry)?;
        Ok(tuner.try_tune(&stack.space, &*stack.eval, stack.cost.len()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use racesim_telemetry::JournalEntry;

    fn spec() -> CampaignSpec {
        CampaignSpec {
            scale: Scale::divide_by(32768),
            budget: 60,
            workers: 2,
            max_iterations: Some(1),
            timeout_ms: Some(60_000),
            fault_profile: "transient".to_string(),
            fault_seed: 7,
            frozen: vec![("x".to_string(), "C0".to_string())],
            ..CampaignSpec::default()
        }
    }

    #[test]
    fn spec_roundtrips_through_its_own_journal_events() {
        let s = spec();
        let mut entries: Vec<JournalEntry> = vec![JournalEntry {
            t_us: 0,
            event: s.config_event(),
        }];
        entries.extend(
            s.frozen_events()
                .into_iter()
                .map(|event| JournalEntry { t_us: 0, event }),
        );
        entries.push(JournalEntry {
            t_us: 1,
            event: Event::CampaignStart {
                seed: s.seed,
                budget: s.budget as usize,
                n_instances: 9,
                n_params: 4,
            },
        });
        let back =
            CampaignSpec::from_journal(&RecordedCampaign::digest(&entries)).expect("reconstructs");
        // Staged caps are segment-local: replay runs to completion.
        assert_eq!(back.max_iterations, None);
        assert_eq!(
            CampaignSpec {
                max_iterations: None,
                ..s
            },
            back
        );
    }

    #[test]
    fn core_names_roundtrip_and_unknown_ones_are_refused() {
        for kind in [CoreKind::InOrder, CoreKind::OutOfOrder] {
            let s = CampaignSpec { kind, ..spec() };
            assert_eq!(core_kind(s.core_name()), Ok(kind));
        }
        assert_eq!(
            core_kind("a99").unwrap_err(),
            "unknown core \"a99\" (use a53 or a72)"
        );
    }

    #[test]
    fn frozen_codes_decode_against_the_space() {
        let mut space = ParamSpace::new();
        space.add_categorical("mode", &["a", "b", "c"]);
        space.add_bool("boost");
        let frozen = |pairs: &[(&str, &str)]| CampaignSpec {
            frozen: pairs
                .iter()
                .map(|(p, c)| (p.to_string(), c.to_string()))
                .collect(),
            ..spec()
        };
        let ok = frozen(&[("boost", "F1"), ("mode", "C2")]);
        assert_eq!(
            ok.decode_frozen(&space),
            Ok(vec![(1, Value::Flag(true)), (0, Value::Cat(2))])
        );
        let err = frozen(&[("nope", "C0")]).decode_frozen(&space).unwrap_err();
        assert!(err.contains("not in the space"), "{err}");
        for code in ["F9", "F", "C0"] {
            let err = frozen(&[("boost", code)])
                .decode_frozen(&space)
                .unwrap_err();
            assert!(err.starts_with("frozen boost: "), "{code:?}: {err}");
        }
    }

    #[test]
    fn build_stack_refuses_static_bounds_before_any_work() {
        let s = CampaignSpec {
            static_bounds: true,
            // An unknown profile would fail later: the refusal comes first.
            fault_profile: "no-such-profile".to_string(),
            ..spec()
        };
        let err = s.build_stack(&Telemetry::disabled()).unwrap_err();
        assert!(err.contains("static_bounds must be false"), "{err}");
    }

    #[test]
    fn journals_without_campaign_config_are_rejected() {
        let entries = vec![JournalEntry {
            t_us: 0,
            event: Event::CampaignStart {
                seed: 1,
                budget: 10,
                n_instances: 2,
                n_params: 2,
            },
        }];
        let err = CampaignSpec::from_journal(&RecordedCampaign::digest(&entries)).unwrap_err();
        assert!(err.contains("campaign_config"), "{err}");
    }
}
