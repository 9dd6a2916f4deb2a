//! The framed wire protocol between the campaign coordinator and its
//! evaluation workers.
//!
//! Every frame is a 4-byte big-endian length prefix followed by exactly
//! that many bytes of UTF-8: one flat JSON object (the same codec the
//! telemetry journal uses, [`racesim_telemetry::json`]). The protocol is
//! request/response over an ordered byte stream — stdin/stdout for
//! spawned workers, any `Read`/`Write` pair for tests. A worker answers
//! requests one at a time, in the order they arrive, so the coordinator
//! may send the next `eval` before the previous reply lands:
//!
//! ```text
//! coordinator                          worker
//!     | -- init {core,scale,faults,...} -> |   (once, on spawn)
//!     | <- ready {worker,n_instances,...}  |
//!     | -- eval {id,cfg,inst,retry...} --> |   (repeated, pipelined)
//!     | <- eval {id,outcome,retries,us} -- |
//!     | -- shutdown ---------------------> |
//!     | <- bye --------------------------- |
//! ```
//!
//! Costs travel as raw `f64` bit patterns ([`f64::to_bits`]) so a
//! distributed campaign reduces to *bit-identical* results: no decimal
//! round-trip sits between the worker's simulator and the coordinator's
//! elimination tests. Configurations travel as their
//! [`Configuration::code`](racesim_race::Configuration::code) (`C{k}`/
//! `I{k}`/`F{0|1}` per parameter, joined with `.`), the one code
//! checkpoints and journals also use, so the two sides agree on encoding
//! by construction.
//!
//! The decoder is strict: torn prefixes and payloads, frames above
//! [`MAX_FRAME`], unknown kinds, and non-finite cost bits are all typed
//! [`WireError`]s — the coordinator maps every one of them into the fault
//! taxonomy rather than trusting a half-written frame.

use std::io::{Read, Write};

use racesim_race::RetryPolicy;
use racesim_telemetry::json::{parse_object, FieldError, Fields, Obj};

/// Hard cap on one frame's payload, in bytes. Frames carry one flat JSON
/// object (a config code, an outcome, a reason string); anything larger
/// is a corrupt or hostile stream, not a bigger message.
pub const MAX_FRAME: usize = 64 * 1024;

/// A typed wire-protocol failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// The peer closed the stream cleanly between frames.
    Closed,
    /// The stream ended inside a length prefix or payload.
    Torn(String),
    /// A length prefix above [`MAX_FRAME`].
    Oversized {
        /// The advertised payload length.
        len: usize,
        /// The cap it exceeded.
        max: usize,
    },
    /// An I/O failure other than clean EOF.
    Io(String),
    /// The payload is not one flat JSON object.
    Json(String),
    /// The object parsed but a field is missing, mistyped, or invalid
    /// (e.g. non-finite cost bits).
    Field(String),
    /// A well-formed frame of a kind this side does not expect.
    UnknownKind(String),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Closed => write!(f, "peer closed the stream"),
            WireError::Torn(what) => write!(f, "torn frame: {what}"),
            WireError::Oversized { len, max } => {
                write!(f, "oversized frame: {len} bytes exceeds the {max}-byte cap")
            }
            WireError::Io(e) => write!(f, "wire i/o error: {e}"),
            WireError::Json(e) => write!(f, "malformed frame payload: {e}"),
            WireError::Field(e) => write!(f, "invalid frame field: {e}"),
            WireError::UnknownKind(k) => write!(f, "unexpected frame kind {k:?}"),
        }
    }
}

impl std::error::Error for WireError {}

/// Writes one length-prefixed frame.
///
/// # Errors
///
/// [`WireError::Oversized`] when `payload` exceeds [`MAX_FRAME`];
/// [`WireError::Io`] on write failure.
pub fn write_frame(w: &mut dyn Write, payload: &str) -> Result<(), WireError> {
    let bytes = payload.as_bytes();
    if bytes.len() > MAX_FRAME {
        return Err(WireError::Oversized {
            len: bytes.len(),
            max: MAX_FRAME,
        });
    }
    let prefix = (bytes.len() as u32).to_be_bytes();
    w.write_all(&prefix)
        .and_then(|()| w.write_all(bytes))
        .and_then(|()| w.flush())
        .map_err(|e| WireError::Io(e.to_string()))
}

/// Reads one length-prefixed frame payload.
///
/// # Errors
///
/// [`WireError::Closed`] on clean EOF before any prefix byte;
/// [`WireError::Torn`] when the stream ends mid-prefix or mid-payload;
/// [`WireError::Oversized`] for prefixes above [`MAX_FRAME`];
/// [`WireError::Json`] for non-UTF-8 payloads; [`WireError::Io`] otherwise.
pub fn read_frame(r: &mut dyn Read) -> Result<String, WireError> {
    let mut prefix = [0u8; 4];
    let mut got = 0usize;
    while got < prefix.len() {
        match r.read(&mut prefix[got..]) {
            Ok(0) if got == 0 => return Err(WireError::Closed),
            Ok(0) => {
                return Err(WireError::Torn(format!(
                    "eof after {got} of 4 length-prefix bytes"
                )))
            }
            Ok(n) => got += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(WireError::Io(e.to_string())),
        }
    }
    let len = u32::from_be_bytes(prefix) as usize;
    if len > MAX_FRAME {
        return Err(WireError::Oversized {
            len,
            max: MAX_FRAME,
        });
    }
    let mut payload = vec![0u8; len];
    let mut got = 0usize;
    while got < len {
        match r.read(&mut payload[got..]) {
            Ok(0) => {
                return Err(WireError::Torn(format!(
                    "eof after {got} of {len} payload bytes"
                )))
            }
            Ok(n) => got += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(WireError::Io(e.to_string())),
        }
    }
    String::from_utf8(payload).map_err(|e| WireError::Json(e.to_string()))
}

/// The campaign context a worker needs before it can evaluate anything:
/// enough of the `CampaignSpec` to rebuild the evaluation stack.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InitSpec {
    /// Core being tuned (`a53` / `a72`).
    pub core: String,
    /// Dynamic-instruction scale divisor.
    pub scale: u64,
    /// Fault-injection profile name.
    pub faults: String,
    /// Base fault-plan seed; the worker derives its own per-slot seed
    /// via `FaultPlan::worker_seed`.
    pub fault_seed: u64,
    /// Per-evaluation watchdog timeout in milliseconds (0 = none).
    pub timeout_ms: u64,
    /// The worker's slot index in the pool.
    pub worker: usize,
    /// Must be `false`, and is not sent on the wire: static
    /// pre-elimination and the static CPI bounds are gone, and
    /// `campaign_stack` refuses `true`. The field is kept only until the
    /// campaign benchmark stops naming it in a struct literal and builds
    /// the spec with `..Default::default()`.
    pub static_bounds: bool,
}

/// A construction convenience: the context of a default
/// [`racesim_core::CampaignSpec`] for worker slot 0.
impl Default for InitSpec {
    fn default() -> InitSpec {
        let spec = racesim_core::CampaignSpec::default();
        InitSpec {
            core: spec.core_name().to_string(),
            scale: spec.scale.divisor(),
            faults: spec.fault_profile,
            fault_seed: spec.fault_seed,
            timeout_ms: spec.timeout_ms.unwrap_or(0),
            worker: 0,
            static_bounds: false,
        }
    }
}

/// A coordinator-to-worker frame.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Handshake: campaign context, sent once after spawn.
    Init(InitSpec),
    /// Evaluate one configuration on one instance.
    Eval {
        /// Request id, echoed back in the matching response.
        id: u64,
        /// The configuration's [`Configuration::code`](racesim_race::Configuration::code).
        config: String,
        /// Benchmark instance index.
        instance: usize,
        /// Retry policy the worker applies to transient faults.
        retry: RetryPolicy,
    },
    /// Orderly teardown; the worker replies [`Response::Bye`] and exits.
    Shutdown,
}

/// The classified result of one evaluation, mirroring
/// `Result<f64, EvalError>` with the cost as exact bits.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Outcome {
    /// A finite cost, as its `f64` bit pattern.
    Cost(u64),
    /// `EvalError::Transient` (already escalated if retries ran dry).
    Transient(String),
    /// `EvalError::Instance`.
    Instance(String),
    /// `EvalError::Config`.
    Config(String),
}

/// A worker-to-coordinator frame.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Handshake reply: the worker is initialised and ready to evaluate.
    Ready {
        /// The worker's slot index, echoed from [`Request::Init`].
        worker: usize,
        /// Number of benchmark instances in the worker's suite.
        n_instances: usize,
        /// Number of tunable parameters in the worker's space.
        n_params: usize,
    },
    /// The classified outcome of one [`Request::Eval`].
    Eval {
        /// The request id this answers.
        id: u64,
        /// The classified evaluation result.
        outcome: Outcome,
        /// Transient retries the worker consumed producing it.
        retries: u64,
        /// Wall time the worker spent on the evaluation, retries
        /// included, in microseconds.
        micros: u64,
    },
    /// Orderly-teardown acknowledgement.
    Bye,
}

impl From<FieldError> for WireError {
    fn from(e: FieldError) -> WireError {
        WireError::Field(e.0)
    }
}

impl Request {
    /// Renders the request as one flat JSON object.
    pub fn encode(&self) -> String {
        let mut o = Obj::new();
        match self {
            Request::Init(spec) => {
                o.str("kind", "init")
                    .str("core", &spec.core)
                    .u64("scale", spec.scale)
                    .str("faults", &spec.faults)
                    .u64("fault_seed", spec.fault_seed)
                    .u64("timeout_ms", spec.timeout_ms)
                    .u64("worker", spec.worker as u64);
            }
            Request::Eval {
                id,
                config,
                instance,
                retry,
            } => {
                o.str("kind", "eval")
                    .u64("id", *id)
                    .str("cfg", config)
                    .u64("inst", *instance as u64)
                    .u64("r_attempts", u64::from(retry.max_attempts))
                    .u64("r_base_ms", retry.base_ms)
                    .u64("r_factor_bits", retry.factor.to_bits())
                    .u64("r_cap_ms", retry.cap_ms);
            }
            Request::Shutdown => {
                o.str("kind", "shutdown");
            }
        }
        o.finish()
    }

    /// Parses a request frame payload.
    ///
    /// # Errors
    ///
    /// [`WireError::Json`] for malformed payloads, [`WireError::Field`]
    /// for missing/mistyped fields (including a non-finite retry factor),
    /// [`WireError::UnknownKind`] for unrecognised `kind`s.
    pub fn decode(payload: &str) -> Result<Request, WireError> {
        let f = Fields(parse_object(payload).map_err(WireError::Json)?);
        match f.str("kind")?.as_str() {
            "init" => Ok(Request::Init(InitSpec {
                core: f.str("core")?,
                scale: f.u64("scale")?,
                faults: f.str("faults")?,
                fault_seed: f.u64("fault_seed")?,
                timeout_ms: f.u64("timeout_ms")?,
                worker: f.usize("worker")?,
                static_bounds: false,
            })),
            "eval" => {
                let factor = f64::from_bits(f.u64("r_factor_bits")?);
                if !factor.is_finite() {
                    return Err(WireError::Field(format!(
                        "retry factor must be finite, got {factor}"
                    )));
                }
                let attempts = f.u64("r_attempts")?;
                Ok(Request::Eval {
                    id: f.u64("id")?,
                    config: f.str("cfg")?,
                    instance: f.usize("inst")?,
                    retry: RetryPolicy {
                        max_attempts: u32::try_from(attempts).map_err(|_| {
                            WireError::Field(format!("retry attempts {attempts} exceed u32"))
                        })?,
                        base_ms: f.u64("r_base_ms")?,
                        factor,
                        cap_ms: f.u64("r_cap_ms")?,
                    },
                })
            }
            "shutdown" => Ok(Request::Shutdown),
            other => Err(WireError::UnknownKind(other.to_string())),
        }
    }
}

impl Response {
    /// Renders the response as one flat JSON object.
    pub fn encode(&self) -> String {
        let mut o = Obj::new();
        match self {
            Response::Ready {
                worker,
                n_instances,
                n_params,
            } => {
                o.str("kind", "ready")
                    .u64("worker", *worker as u64)
                    .u64("n_instances", *n_instances as u64)
                    .u64("n_params", *n_params as u64);
            }
            Response::Eval {
                id,
                outcome,
                retries,
                micros,
            } => {
                o.str("kind", "eval").u64("id", *id);
                match outcome {
                    Outcome::Cost(bits) => {
                        o.str("outcome", "cost").u64("bits", *bits);
                    }
                    Outcome::Transient(reason) => {
                        o.str("outcome", "transient").str("reason", reason);
                    }
                    Outcome::Instance(reason) => {
                        o.str("outcome", "instance").str("reason", reason);
                    }
                    Outcome::Config(reason) => {
                        o.str("outcome", "config").str("reason", reason);
                    }
                }
                o.u64("retries", *retries).u64("micros", *micros);
            }
            Response::Bye => {
                o.str("kind", "bye");
            }
        }
        o.finish()
    }

    /// Parses a response frame payload.
    ///
    /// # Errors
    ///
    /// [`WireError::Json`] for malformed payloads, [`WireError::Field`]
    /// for missing/mistyped fields — including cost bits that decode to a
    /// non-finite `f64`, which the coordinator must never accept as a
    /// valid cost — and [`WireError::UnknownKind`] for unrecognised
    /// `kind`s or outcomes.
    pub fn decode(payload: &str) -> Result<Response, WireError> {
        let f = Fields(parse_object(payload).map_err(WireError::Json)?);
        match f.str("kind")?.as_str() {
            "ready" => Ok(Response::Ready {
                worker: f.usize("worker")?,
                n_instances: f.usize("n_instances")?,
                n_params: f.usize("n_params")?,
            }),
            "eval" => {
                let outcome = match f.str("outcome")?.as_str() {
                    "cost" => {
                        let bits = f.u64("bits")?;
                        let cost = f64::from_bits(bits);
                        if !cost.is_finite() {
                            return Err(WireError::Field(format!(
                                "cost bits {bits:#x} decode to non-finite {cost}"
                            )));
                        }
                        Outcome::Cost(bits)
                    }
                    "transient" => Outcome::Transient(f.str("reason")?),
                    "instance" => Outcome::Instance(f.str("reason")?),
                    "config" => Outcome::Config(f.str("reason")?),
                    other => return Err(WireError::UnknownKind(format!("outcome {other}"))),
                };
                Ok(Response::Eval {
                    id: f.u64("id")?,
                    outcome,
                    retries: f.u64("retries")?,
                    // Absent in frames from workers that predate it.
                    micros: f.or("micros", 0, Fields::u64)?,
                })
            }
            "bye" => Ok(Response::Bye),
            other => Err(WireError::UnknownKind(other.to_string())),
        }
    }
}

/// Writes one request frame.
///
/// # Errors
///
/// Propagates [`write_frame`] failures.
pub fn write_request(w: &mut dyn Write, req: &Request) -> Result<(), WireError> {
    write_frame(w, &req.encode())
}

/// Reads and decodes one request frame.
///
/// # Errors
///
/// Propagates [`read_frame`] and [`Request::decode`] failures.
pub fn read_request(r: &mut dyn Read) -> Result<Request, WireError> {
    Request::decode(&read_frame(r)?)
}

/// Writes one response frame.
///
/// # Errors
///
/// Propagates [`write_frame`] failures.
pub fn write_response(w: &mut dyn Write, resp: &Response) -> Result<(), WireError> {
    write_frame(w, &resp.encode())
}

/// Reads and decodes one response frame.
///
/// # Errors
///
/// Propagates [`read_frame`] and [`Response::decode`] failures.
pub fn read_response(r: &mut dyn Read) -> Result<Response, WireError> {
    Response::decode(&read_frame(r)?)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_roundtrip_over_a_buffer() {
        let mut buf: Vec<u8> = Vec::new();
        let req = Request::Eval {
            id: 7,
            config: "C1.I3.F0".to_string(),
            instance: 4,
            retry: RetryPolicy::default(),
        };
        write_request(&mut buf, &req).unwrap();
        let resp = Response::Eval {
            id: 7,
            outcome: Outcome::Cost(0.25f64.to_bits()),
            retries: 1,
            micros: 1234,
        };
        write_response(&mut buf, &resp).unwrap();
        let mut r = &buf[..];
        assert_eq!(read_request(&mut r).unwrap(), req);
        assert_eq!(read_response(&mut r).unwrap(), resp);
        assert_eq!(read_request(&mut r), Err(WireError::Closed));
    }

    #[test]
    fn eval_replies_without_micros_decode_as_zero() {
        let legacy = "{\"kind\":\"eval\",\"id\":3,\"outcome\":\"cost\",\
                      \"bits\":0,\"retries\":2}";
        assert_eq!(
            Response::decode(legacy).unwrap(),
            Response::Eval {
                id: 3,
                outcome: Outcome::Cost(0),
                retries: 2,
                micros: 0,
            }
        );
    }

    #[test]
    fn torn_prefix_and_payload_are_typed() {
        let mut buf: Vec<u8> = Vec::new();
        write_frame(&mut buf, "{\"kind\":\"bye\"}").unwrap();
        let torn_prefix = &buf[..2];
        assert!(matches!(
            read_frame(&mut &torn_prefix[..]),
            Err(WireError::Torn(_))
        ));
        let torn_payload = &buf[..buf.len() - 3];
        assert!(matches!(
            read_frame(&mut &torn_payload[..]),
            Err(WireError::Torn(_))
        ));
    }

    #[test]
    fn oversized_prefix_is_rejected_without_allocation() {
        let prefix = ((MAX_FRAME + 1) as u32).to_be_bytes();
        assert_eq!(
            read_frame(&mut &prefix[..]),
            Err(WireError::Oversized {
                len: MAX_FRAME + 1,
                max: MAX_FRAME
            })
        );
        let huge = "x".repeat(MAX_FRAME + 1);
        assert!(matches!(
            write_frame(&mut Vec::new(), &huge),
            Err(WireError::Oversized { .. })
        ));
    }

    #[test]
    fn non_finite_cost_bits_are_rejected() {
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let payload = Response::Eval {
                id: 1,
                outcome: Outcome::Cost(bad.to_bits()),
                retries: 0,
                micros: 0,
            }
            .encode();
            assert!(matches!(
                Response::decode(&payload),
                Err(WireError::Field(_))
            ));
        }
    }

    #[test]
    fn unknown_kinds_are_typed() {
        assert_eq!(
            Request::decode("{\"kind\":\"warp\"}"),
            Err(WireError::UnknownKind("warp".to_string()))
        );
        assert_eq!(
            Response::decode("{\"kind\":\"eval\",\"id\":1,\"outcome\":\"maybe\",\"retries\":0}"),
            Err(WireError::UnknownKind("outcome maybe".to_string()))
        );
    }
}
