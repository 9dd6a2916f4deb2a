//! The worker side of a distributed campaign: a serve loop that answers
//! framed evaluation requests over any `Read`/`Write` pair.
//!
//! A worker is stateless between requests. It learns the campaign context
//! and the coordinator's latency estimates from the [`Request::Init`]
//! handshake, rebuilds the evaluation stack locally (board, base platform
//! with those estimates plugged in, parameter space, lazy suite cost —
//! exactly what the coordinator built, without probing the board again),
//! replies [`Response::Ready`], then answers [`Request::Eval`] frames
//! until it is shut down or its stream closes. Only an `init` without
//! estimates makes the worker run the latency probes itself.
//!
//! Every evaluation goes through [`racesim_race::eval_with_retry`] — the
//! same single classification point the sequential and in-process-thread
//! paths use — with the retry policy the coordinator sent in the request.
//! The worker therefore returns *fully classified* outcomes (transient
//! faults already retried and, if persistent, already escalated with the
//! canonical message), which is what keeps distributed journals and
//! checkpoints bit-identical to sequential ones.
//!
//! Fault-injection hooks for the acceptance tests: `exit_after` makes the
//! worker die (close its stream without replying) on the Nth evaluation
//! request, and `only_worker` gates that death to one pool slot — so a
//! test can kill exactly one worker mid-iteration, deterministically.

use std::io::{Read, Write};
use std::sync::Arc;
use std::time::Instant;

use racesim_core::latency::LatencyEstimates;
use racesim_core::{core_kind, CampaignSpec, CampaignStack};
use racesim_hw::FaultPlan;
use racesim_kernels::Scale;
use racesim_race::{eval_with_retry, Configuration, ParamSpace, TryCostFn};
use racesim_telemetry::Telemetry;

use crate::wire::{read_request, write_response, InitSpec, Outcome, Request, Response, WireError};

/// Fault-injection hooks for a worker under test.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct WorkerOptions {
    /// Die (close the stream without replying) on the Nth evaluation
    /// request, 1-based. `None` = never.
    pub exit_after: Option<u64>,
    /// Apply `exit_after` only when the handshake assigns this pool
    /// slot. `None` = apply to any slot.
    pub only_worker: Option<usize>,
}

/// The evaluation stack a worker serves requests against.
pub struct WorkerStack {
    /// The tunable parameter space (must match the coordinator's).
    pub space: ParamSpace,
    /// The classified-fault cost function.
    pub cost: Arc<dyn TryCostFn + Send + Sync>,
    /// Number of benchmark instances, reported in [`Response::Ready`].
    pub n_instances: usize,
}

impl std::fmt::Debug for WorkerStack {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerStack")
            .field("n_params", &self.space.len())
            .field("n_instances", &self.n_instances)
            .finish()
    }
}

/// Why a serve loop ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServeEnd {
    /// The coordinator sent [`Request::Shutdown`]; `bye` was replied.
    Shutdown,
    /// The coordinator closed the stream without a shutdown frame.
    Eof,
    /// The `exit_after` fault hook fired: the worker dropped a request
    /// on the floor and must now exit without replying.
    Killed,
}

/// Serves framed evaluation requests until shutdown, EOF, or injected
/// death.
///
/// Reads the [`Request::Init`] handshake, calls `build` with its spec and
/// latency estimates to assemble the evaluation stack for that campaign,
/// replies [`Response::Ready`], then loops over [`Request::Eval`] frames.
///
/// # Errors
///
/// [`WireError`] on torn/oversized/malformed frames or I/O failure; a
/// [`WireError::Field`] wrapping the build error when `build` fails.
pub fn serve(
    reader: &mut dyn Read,
    writer: &mut dyn Write,
    opts: &WorkerOptions,
    build: impl FnOnce(&InitSpec, Option<LatencyEstimates>) -> Result<WorkerStack, String>,
) -> Result<ServeEnd, WireError> {
    let (init, estimates) = match read_request(reader)? {
        Request::Init { spec, estimates } => (spec, estimates),
        Request::Shutdown => {
            write_response(writer, &Response::Bye)?;
            return Ok(ServeEnd::Shutdown);
        }
        other => {
            return Err(WireError::Field(format!(
                "first frame must be init, got {other:?}"
            )))
        }
    };
    let stack = build(&init, estimates)
        .map_err(|e| WireError::Field(format!("worker stack build failed: {e}")))?;
    write_response(
        writer,
        &Response::Ready {
            worker: init.worker,
            n_instances: stack.n_instances,
            n_params: stack.space.len(),
        },
    )?;

    let lethal = opts.only_worker.is_none_or(|only| only == init.worker);
    let mut served = 0u64;
    loop {
        let req = match read_request(reader) {
            Ok(req) => req,
            Err(WireError::Closed) => return Ok(ServeEnd::Eof),
            Err(e) => return Err(e),
        };
        match req {
            Request::Eval {
                id,
                config,
                instance,
                retry,
            } => {
                served += 1;
                if lethal && opts.exit_after == Some(served) {
                    return Ok(ServeEnd::Killed);
                }
                let started = Instant::now();
                let (outcome, retries) = match Configuration::from_code(&stack.space, &config) {
                    Ok(cfg) => {
                        let (result, retries) = eval_with_retry(
                            stack.cost.as_ref(),
                            &cfg,
                            &stack.space,
                            instance,
                            &retry,
                        );
                        (Outcome::from_result(result), retries)
                    }
                    // An undecodable config can only mean coordinator and
                    // worker disagree on the space — surface it as a
                    // config fault so the coordinator's taxonomy sees it.
                    Err(e) => (Outcome::Config(format!("undecodable config: {e}")), 0),
                };
                write_response(
                    writer,
                    &Response::Eval {
                        id,
                        outcome,
                        retries,
                        micros: started.elapsed().as_micros() as u64,
                    },
                )?;
            }
            Request::Shutdown => {
                write_response(writer, &Response::Bye)?;
                return Ok(ServeEnd::Shutdown);
            }
            Request::Init { .. } => {
                return Err(WireError::Field(
                    "duplicate init frame after handshake".to_string(),
                ))
            }
        }
    }
}

/// Builds the campaign stack a spawned worker serves, through the same
/// [`CampaignSpec::build_stack_from`] the coordinator's stack went
/// through: with the coordinator's latency `estimates` it runs no probe;
/// with `None` it probes the board first ([`CampaignSpec::build_stack`]).
/// Telemetry is disabled (the coordinator journals; workers stay silent)
/// and the fault seed is re-keyed per worker slot via
/// [`FaultPlan::worker_seed`] so concurrent workers draw distinct,
/// deterministic fault schedules.
///
/// # Errors
///
/// Unknown core names, and any probe/measurement failure from the stack
/// build.
pub fn campaign_stack(
    init: &InitSpec,
    estimates: Option<LatencyEstimates>,
) -> Result<CampaignStack, String> {
    let spec = CampaignSpec {
        kind: core_kind(&init.core)?,
        scale: Scale::divide_by(init.scale),
        budget: 0,
        seed: 0,
        threads: 1,
        workers: 0,
        max_iterations: None,
        timeout_ms: (init.timeout_ms > 0).then_some(init.timeout_ms),
        fault_profile: init.faults.clone(),
        fault_seed: FaultPlan::worker_seed(init.fault_seed, init.worker),
        frozen: Vec::new(),
        static_bounds: init.static_bounds,
    };
    let telemetry = Telemetry::disabled();
    match estimates {
        Some(est) => spec.build_stack_from(est, &telemetry),
        None => spec.build_stack(&telemetry),
    }
}

/// A worker serves the campaign stack's (watchdog-wrapped) `eval`.
impl From<CampaignStack> for WorkerStack {
    fn from(stack: CampaignStack) -> WorkerStack {
        WorkerStack {
            n_instances: stack.cost.len(),
            space: stack.space,
            cost: stack.eval,
        }
    }
}

/// Runs a spawned worker over stdin/stdout: frames on the standard
/// streams, diagnostics on stderr. This is the body of `racesim worker`.
///
/// # Errors
///
/// Propagates [`serve`] failures.
pub fn serve_stdio(opts: &WorkerOptions) -> Result<ServeEnd, WireError> {
    let stdin = std::io::stdin();
    let stdout = std::io::stdout();
    let mut reader = stdin.lock();
    let mut writer = std::io::BufWriter::new(stdout.lock());
    serve(&mut reader, &mut writer, opts, |init, estimates| {
        campaign_stack(init, estimates).map(WorkerStack::from)
    })
}

impl Outcome {
    /// Wraps a classified evaluation result for the wire.
    pub fn from_result(result: Result<f64, racesim_race::EvalError>) -> Outcome {
        match result {
            Ok(cost) => Outcome::Cost(cost.to_bits()),
            Err(racesim_race::EvalError::Transient(r)) => Outcome::Transient(r),
            Err(racesim_race::EvalError::Instance(r)) => Outcome::Instance(r),
            Err(racesim_race::EvalError::Config(r)) => Outcome::Config(r),
        }
    }

    /// Unwraps a wire outcome back into the classified result.
    pub fn into_result(self) -> Result<f64, racesim_race::EvalError> {
        match self {
            Outcome::Cost(bits) => Ok(f64::from_bits(bits)),
            Outcome::Transient(r) => Err(racesim_race::EvalError::Transient(r)),
            Outcome::Instance(r) => Err(racesim_race::EvalError::Instance(r)),
            Outcome::Config(r) => Err(racesim_race::EvalError::Config(r)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::{read_response, write_request, Request};
    use racesim_race::{EvalError, RetryPolicy};

    struct SquareCost;
    impl TryCostFn for SquareCost {
        fn try_cost(
            &self,
            cfg: &Configuration,
            space: &ParamSpace,
            instance: usize,
        ) -> Result<f64, EvalError> {
            let x = cfg.integer(space, "x") as f64;
            match instance {
                9 => Err(EvalError::Transient("flaky link".to_string())),
                _ => Ok((x - 3.0).powi(2) + instance as f64),
            }
        }
    }

    fn test_space() -> ParamSpace {
        let mut space = ParamSpace::new();
        space.add_integer("x", &[1, 2, 3, 4, 5]);
        space
    }

    fn test_build(
        _init: &InitSpec,
        _estimates: Option<LatencyEstimates>,
    ) -> Result<WorkerStack, String> {
        Ok(WorkerStack {
            space: test_space(),
            cost: Arc::new(SquareCost),
            n_instances: 4,
        })
    }

    /// Drives `serve` over in-memory buffers: writes all requests up
    /// front, runs the loop to completion, then reads every response.
    fn drive(requests: &[Request], opts: &WorkerOptions) -> (Result<ServeEnd, WireError>, Vec<u8>) {
        let mut input: Vec<u8> = Vec::new();
        for req in requests {
            write_request(&mut input, req).unwrap();
        }
        let mut output: Vec<u8> = Vec::new();
        let end = serve(&mut &input[..], &mut output, opts, test_build);
        (end, output)
    }

    fn eval_req(id: u64, instance: usize) -> Request {
        let space = test_space();
        let mut cfg = space.default_configuration();
        cfg.set_value(0, racesim_race::Value::Int(4));
        Request::Eval {
            id,
            config: cfg.code(),
            instance,
            retry: RetryPolicy::immediate(1),
        }
    }

    fn init_spec(core: &str, worker: usize) -> InitSpec {
        InitSpec {
            core: core.to_string(),
            scale: 2048,
            faults: "none".to_string(),
            fault_seed: 1,
            timeout_ms: 0,
            worker,
            static_bounds: false,
        }
    }

    fn init_req(worker: usize) -> Request {
        Request::Init {
            spec: init_spec("a53", worker),
            estimates: None,
        }
    }

    #[test]
    fn serves_evals_and_shuts_down() {
        let (end, out) = drive(
            &[
                init_req(0),
                eval_req(1, 2),
                eval_req(2, 0),
                Request::Shutdown,
            ],
            &WorkerOptions::default(),
        );
        assert_eq!(end, Ok(ServeEnd::Shutdown));
        let mut r = &out[..];
        assert_eq!(
            read_response(&mut r).unwrap(),
            Response::Ready {
                worker: 0,
                n_instances: 4,
                n_params: 1
            }
        );
        // x = 5 (index 4): (5-3)^2 + instance. `micros` is wall time.
        for (want_id, want_cost) in [(1, 6.0f64), (2, 4.0)] {
            match read_response(&mut r).unwrap() {
                Response::Eval {
                    id,
                    outcome,
                    retries,
                    ..
                } => {
                    assert_eq!(id, want_id);
                    assert_eq!(outcome, Outcome::Cost(want_cost.to_bits()));
                    assert_eq!(retries, 0);
                }
                other => panic!("expected an eval reply, got {other:?}"),
            }
        }
        assert_eq!(read_response(&mut r).unwrap(), Response::Bye);
    }

    #[test]
    fn transient_faults_escalate_with_the_canonical_message() {
        // RetryPolicy::immediate(1): one attempt, so the transient fault
        // escalates to Instance exactly as eval_with_retry does inline.
        let (end, out) = drive(
            &[init_req(0), eval_req(1, 9), Request::Shutdown],
            &WorkerOptions::default(),
        );
        assert_eq!(end, Ok(ServeEnd::Shutdown));
        let mut r = &out[..];
        let _ready = read_response(&mut r).unwrap();
        match read_response(&mut r).unwrap() {
            Response::Eval {
                outcome: Outcome::Instance(reason),
                ..
            } => {
                assert!(
                    reason.contains("transient fault persisted through 1 attempts"),
                    "unexpected escalation message: {reason}"
                );
            }
            other => panic!("expected escalated instance fault, got {other:?}"),
        }
    }

    #[test]
    fn exit_after_kills_the_matching_worker_only() {
        // Worker 0 with only_worker=0: dies on the 2nd eval, no reply.
        let opts = WorkerOptions {
            exit_after: Some(2),
            only_worker: Some(0),
        };
        let (end, out) = drive(&[init_req(0), eval_req(1, 0), eval_req(2, 1)], &opts);
        assert_eq!(end, Ok(ServeEnd::Killed));
        let mut r = &out[..];
        let _ready = read_response(&mut r).unwrap();
        assert!(matches!(
            read_response(&mut r).unwrap(),
            Response::Eval { id: 1, .. }
        ));
        assert_eq!(read_response(&mut r), Err(WireError::Closed));

        // Worker 1 with only_worker=0: the hook does not fire.
        let (end, _) = drive(
            &[
                init_req(1),
                eval_req(1, 0),
                eval_req(2, 1),
                Request::Shutdown,
            ],
            &opts,
        );
        assert_eq!(end, Ok(ServeEnd::Shutdown));
    }

    #[test]
    fn undecodable_configs_come_back_as_config_faults() {
        let req = Request::Eval {
            id: 5,
            config: "I9".to_string(),
            instance: 0,
            retry: RetryPolicy::immediate(1),
        };
        let (end, out) = drive(
            &[init_req(0), req, Request::Shutdown],
            &WorkerOptions::default(),
        );
        assert_eq!(end, Ok(ServeEnd::Shutdown));
        let mut r = &out[..];
        let _ready = read_response(&mut r).unwrap();
        assert!(matches!(
            read_response(&mut r).unwrap(),
            Response::Eval {
                id: 5,
                outcome: Outcome::Config(_),
                ..
            }
        ));
    }

    #[test]
    fn eof_without_shutdown_is_a_clean_end() {
        let (end, _) = drive(&[init_req(0), eval_req(1, 0)], &WorkerOptions::default());
        assert_eq!(end, Ok(ServeEnd::Eof));
    }

    #[test]
    fn campaign_stacks_refuse_the_removed_bounds_toggle() {
        let init = InitSpec {
            static_bounds: true,
            ..init_spec("a53", 0)
        };
        for estimates in [
            None,
            Some(LatencyEstimates {
                l1d: 3,
                l2: 20,
                dram: 150,
            }),
        ] {
            let Err(err) = campaign_stack(&init, estimates) else {
                panic!("a bounds-on init must be refused");
            };
            assert!(err.contains("static_bounds must be false"), "{err}");
        }
    }

    #[test]
    fn campaign_stacks_use_the_coordinators_estimates_instead_of_probing() {
        for core in ["a53", "a72"] {
            let init = init_spec(core, 1);
            // What the coordinator builds: it probes the board.
            let coordinator = CampaignSpec {
                kind: core_kind(core).unwrap(),
                scale: Scale::divide_by(init.scale),
                ..CampaignSpec::default()
            }
            .build_stack(&Telemetry::disabled())
            .unwrap();
            let shipped = campaign_stack(&init, Some(coordinator.estimates)).unwrap();
            assert_eq!(shipped.base, coordinator.base, "{core}");
            assert_eq!(shipped.space.len(), coordinator.space.len(), "{core}");

            // Estimates no probe would give land in the worker's base
            // unchanged: the worker uses what it is sent.
            let odd = LatencyEstimates {
                l1d: 1,
                l2: 2,
                dram: 7,
            };
            let stack = campaign_stack(&init, Some(odd)).unwrap();
            assert_eq!(stack.estimates, odd, "{core}");
            let mem = &stack.base.mem;
            assert_eq!(
                (mem.l1d.latency, mem.l2.latency, mem.dram.latency),
                (1, 2, 7),
                "{core}"
            );
            assert_ne!(stack.base, coordinator.base, "{core}");
        }
    }
}
