//! Property tests for the coordinator/worker wire protocol.
//!
//! Two invariants carry the distributed-determinism guarantee:
//!
//! 1. every request/response frame — failure variants included —
//!    round-trips **bit-identically** through encode → frame → deframe →
//!    decode (costs travel as raw `f64` bits, so even subnormals and
//!    signed zeros survive exactly);
//! 2. the decoder never accepts a damaged stream: torn prefixes, torn
//!    payloads, oversized lengths, non-finite cost bits, and `init`
//!    frames with partial or zero latency estimates all come back as
//!    typed `WireError`s, never as a plausible-looking frame (and never
//!    as an `init` that would silently make the worker probe).

use proptest::prelude::*;
use proptest::strategy::BoxedStrategy;
use racesim_core::latency::LatencyEstimates;
use racesim_dist::wire::{
    read_frame, read_request, read_response, write_request, write_response, InitSpec, Outcome,
    Request, Response, WireError, MAX_FRAME,
};
use racesim_race::RetryPolicy;

/// Arbitrary string, control characters and lossy-UTF-8 included.
fn any_string() -> impl Strategy<Value = String> {
    collection::vec(any::<u8>(), 0..24).prop_map(|b| String::from_utf8_lossy(&b).into_owned())
}

/// Dotted configuration codes (`Configuration::code`'s alphabet).
fn any_config_code() -> impl Strategy<Value = String> {
    collection::vec((0..3u8, 0..64u16), 0..12).prop_map(|parts| {
        parts
            .iter()
            .map(|(kind, k)| match kind {
                0 => format!("C{k}"),
                1 => format!("I{k}"),
                _ => format!("F{}", k % 2),
            })
            .collect::<Vec<_>>()
            .join(".")
    })
}

/// Retry policies with a finite factor (the decoder rejects the rest).
fn any_retry() -> impl Strategy<Value = RetryPolicy> {
    (1..16u32, 0..5_000u64, 0..4_096u32, 0..10_000u64).prop_map(
        |(max_attempts, base_ms, factor_milli, cap_ms)| RetryPolicy {
            max_attempts,
            base_ms,
            factor: f64::from(factor_milli) / 1000.0,
            cap_ms,
        },
    )
}

/// Latencies as the probe reports them: each at least 1 cycle.
fn any_latencies() -> impl Strategy<Value = (u64, u64, u64)> {
    (1..=u64::MAX, 1..=u64::MAX, 1..=u64::MAX)
}

/// An `init`'s estimates: absent (the worker probes) or all three.
fn any_estimates() -> BoxedStrategy<Option<LatencyEstimates>> {
    prop_oneof![
        Just(None),
        any_latencies().prop_map(|(l1d, l2, dram)| Some(LatencyEstimates { l1d, l2, dram })),
    ]
    .boxed()
}

fn any_request() -> BoxedStrategy<Request> {
    prop_oneof![
        (
            any_string(),
            1..1_000_000u64,
            any_string(),
            any::<u64>(),
            any::<u64>(),
            0..64usize,
            any_estimates(),
        )
            .prop_map(
                |(core, scale, faults, fault_seed, timeout_ms, worker, estimates)| {
                    Request::Init {
                        spec: InitSpec {
                            core,
                            scale,
                            faults,
                            fault_seed,
                            timeout_ms,
                            worker,
                            static_bounds: false,
                        },
                        estimates,
                    }
                }
            ),
        (any::<u64>(), any_config_code(), 0..256usize, any_retry()).prop_map(
            |(id, config, instance, retry)| Request::Eval {
                id,
                config,
                instance,
                retry,
            }
        ),
        Just(Request::Shutdown),
    ]
    .boxed()
}

/// Finite cost bits: resampled until the payload is a finite `f64`.
fn finite_cost_bits() -> impl Strategy<Value = u64> {
    any::<u64>().prop_map(|bits| {
        if f64::from_bits(bits).is_finite() {
            bits
        } else {
            // Fold non-finite payloads back into the finite range by
            // clearing the exponent's top bit.
            bits & !(1u64 << 62)
        }
    })
}

fn any_outcome() -> BoxedStrategy<Outcome> {
    prop_oneof![
        finite_cost_bits().prop_map(Outcome::Cost),
        any_string().prop_map(Outcome::Transient),
        any_string().prop_map(Outcome::Instance),
        any_string().prop_map(Outcome::Config),
    ]
    .boxed()
}

fn any_response() -> BoxedStrategy<Response> {
    prop_oneof![
        (0..64usize, 0..64usize, 0..64usize).prop_map(|(worker, n_instances, n_params)| {
            Response::Ready {
                worker,
                n_instances,
                n_params,
            }
        }),
        (any::<u64>(), any_outcome(), 0..1_000u64, any::<u64>()).prop_map(
            |(id, outcome, retries, micros)| Response::Eval {
                id,
                outcome,
                retries,
                micros,
            }
        ),
        Just(Response::Bye),
    ]
    .boxed()
}

/// An `init` payload carrying the `lat_*` fields whose bit is set in
/// `mask` (bit 0 `lat_l1d`, bit 1 `lat_l2`, bit 2 `lat_dram`).
fn init_with_latencies(mask: u8, (l1d, l2, dram): (u64, u64, u64)) -> String {
    let mut payload = Request::Init {
        spec: InitSpec::default(),
        estimates: None,
    }
    .encode();
    assert_eq!(payload.pop(), Some('}'));
    for (bit, key, v) in [
        (1, "lat_l1d", l1d),
        (2, "lat_l2", l2),
        (4, "lat_dram", dram),
    ] {
        if mask & bit != 0 {
            payload.push_str(&format!(",\"{key}\":{v}"));
        }
    }
    payload.push('}');
    payload
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Any interleaved sequence of frames round-trips bit-identically
    /// through one contiguous byte stream.
    #[test]
    fn frame_sequences_roundtrip_bit_identically(
        frames in collection::vec((any_request(), any_response()), 0..12),
    ) {
        let mut buf: Vec<u8> = Vec::new();
        for (req, resp) in &frames {
            write_request(&mut buf, req).expect("encode request");
            write_response(&mut buf, resp).expect("encode response");
        }
        let mut r = &buf[..];
        for (req, resp) in &frames {
            prop_assert_eq!(&read_request(&mut r).expect("decode request"), req);
            prop_assert_eq!(&read_response(&mut r).expect("decode response"), resp);
        }
        prop_assert_eq!(read_frame(&mut r), Err(WireError::Closed));
    }

    /// Truncating a valid stream at any byte boundary yields a typed
    /// torn/closed error — never a spurious frame.
    #[test]
    fn truncated_streams_are_torn_or_closed(
        resp in any_response(),
        cut_fraction in 0..100usize,
    ) {
        let mut buf: Vec<u8> = Vec::new();
        write_response(&mut buf, &resp).expect("encode");
        let cut = cut_fraction * (buf.len() - 1) / 100;
        let mut r = &buf[..cut];
        match read_response(&mut r) {
            Err(WireError::Closed) => prop_assert_eq!(cut, 0),
            Err(WireError::Torn(_)) => prop_assert!(cut > 0 && cut < buf.len()),
            other => prop_assert!(false, "cut at {} gave {:?}", cut, other),
        }
    }

    /// Length prefixes above the cap are rejected before any payload
    /// allocation, whatever bytes follow.
    #[test]
    fn oversized_prefixes_are_rejected(
        excess in 1..1_000_000usize,
        trailing in collection::vec(any::<u8>(), 0..32),
    ) {
        let len = MAX_FRAME + excess;
        let mut buf = (len as u32).to_be_bytes().to_vec();
        buf.extend_from_slice(&trailing);
        prop_assert_eq!(
            read_frame(&mut &buf[..]),
            Err(WireError::Oversized { len, max: MAX_FRAME })
        );
    }

    /// Non-finite cost bits never decode into a valid outcome, whatever
    /// NaN payload or infinity sign they carry.
    #[test]
    fn non_finite_cost_bits_are_always_rejected(raw in any::<u64>()) {
        // Force the exponent to all-ones: every such pattern is an
        // infinity (zero mantissa) or some NaN payload.
        let bits = raw | 0x7ff0_0000_0000_0000;
        assert!(!f64::from_bits(bits).is_finite());
        let payload = Response::Eval {
            id: 1,
            outcome: Outcome::Cost(bits),
            retries: 0,
            micros: 0,
        }
        .encode();
        prop_assert!(matches!(
            Response::decode(&payload),
            Err(WireError::Field(_))
        ));
    }

    /// An `init` with one or two of the three latencies is a typed field
    /// error: the worker neither panics nor quietly probes instead.
    #[test]
    fn partial_latency_estimates_are_typed(mask in 1..7u8, lat in any_latencies()) {
        let decoded = Request::decode(&init_with_latencies(mask, lat));
        prop_assert!(
            matches!(&decoded, Err(WireError::Field(e)) if e.contains("some but not all")),
            "mask {:#b} gave {:?}", mask, decoded
        );
        // All three decode; none means the worker probes for itself.
        prop_assert!(matches!(
            Request::decode(&init_with_latencies(7, lat)),
            Ok(Request::Init { estimates: Some(_), .. })
        ));
        prop_assert!(matches!(
            Request::decode(&init_with_latencies(0, lat)),
            Ok(Request::Init { estimates: None, .. })
        ));
    }

    /// A zero latency is a typed field error: the probe clamps every
    /// estimate to at least one cycle, so a zero is a corrupt frame.
    #[test]
    fn zero_latencies_are_typed(zeroed in 1..8u8, lat in any_latencies()) {
        let (l1d, l2, dram) = lat;
        let pick = |bit: u8, v: u64| if zeroed & bit != 0 { 0 } else { v };
        let lat = (pick(1, l1d), pick(2, l2), pick(4, dram));
        let decoded = Request::decode(&init_with_latencies(7, lat));
        prop_assert!(
            matches!(&decoded, Err(WireError::Field(e)) if e.contains("at least 1 cycle")),
            "{:?} gave {:?}", lat, decoded
        );
    }

    /// Flipping `kind` to an unknown tag is typed, not silently coerced.
    #[test]
    fn unknown_tags_are_typed(letters in collection::vec(0..26u8, 1..12)) {
        let mut tag: String = letters.iter().map(|l| (b'a' + l) as char).collect();
        if ["init", "eval", "shutdown", "ready", "bye"].contains(&tag.as_str()) {
            tag.push('z');
        }
        let req = format!("{{\"kind\":{:?}}}", tag);
        prop_assert_eq!(
            Request::decode(&req),
            Err(WireError::UnknownKind(tag.clone()))
        );
        let resp = format!("{{\"kind\":{:?}}}", tag);
        prop_assert_eq!(
            Response::decode(&resp),
            Err(WireError::UnknownKind(tag))
        );
    }
}
