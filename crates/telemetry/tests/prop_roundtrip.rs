//! Property tests: any sequence of journal events round-trips through the
//! JSONL sink and parser losslessly, and any nested JSON document
//! round-trips through the `json` writer and parser.
//!
//! Entries are compared by their rendered lines rather than by value, so
//! NaN-carrying events (where `PartialEq` would lie) are still checked
//! exactly: parse(render(e)) must re-render to the identical line.

use proptest::prelude::*;
use proptest::strategy::BoxedStrategy;
use racesim_telemetry::json::{self, Obj, Scalar, Value};
use racesim_telemetry::{parse_journal, Event, JournalEntry};

/// Arbitrary `f64` from raw bits: hits NaN, infinities, subnormals and
/// ordinary values alike.
fn any_f64() -> impl Strategy<Value = f64> {
    any::<u64>().prop_map(f64::from_bits)
}

/// Arbitrary string, control characters and invalid-UTF-8 replacement
/// included (the shim has no string strategy, so build one from bytes).
fn any_string() -> impl Strategy<Value = String> {
    collection::vec(any::<u8>(), 0..16).prop_map(|b| String::from_utf8_lossy(&b).into_owned())
}

fn any_event() -> BoxedStrategy<Event> {
    prop_oneof![
        (any::<u64>(), 0..10_000usize, 0..64usize, 0..32usize).prop_map(
            |(seed, budget, n_instances, n_params)| Event::CampaignStart {
                seed,
                budget,
                n_instances,
                n_params,
            }
        ),
        (0..100usize, 0..10_000usize).prop_map(|(next_iteration, budget_remaining)| {
            Event::Resume {
                next_iteration,
                budget_remaining,
            }
        }),
        (
            any_string(),
            any::<u64>(),
            any_string(),
            any::<u64>(),
            any::<u64>(),
            0..256usize,
            0..64usize,
            any::<u64>(),
        )
            .prop_map(
                |(
                    core,
                    scale,
                    faults,
                    fault_seed,
                    timeout_ms,
                    threads,
                    workers,
                    max_iterations,
                )| {
                    Event::CampaignConfig {
                        core,
                        scale,
                        faults,
                        fault_seed,
                        timeout_ms,
                        threads,
                        workers,
                        max_iterations,
                    }
                }
            ),
        (any_string(), any_string()).prop_map(|(param, code)| Event::Frozen { param, code }),
        (0..100usize, 0..512usize)
            .prop_map(|(iteration, configs)| Event::IterationStart { iteration, configs }),
        (
            0..100usize,
            0..512usize,
            any_f64(),
            0..10_000usize,
            0..64usize,
            any::<u64>()
        )
            .prop_map(|(iteration, survivors, best_cost, evals, blocks, micros)| {
                Event::IterationEnd {
                    iteration,
                    survivors,
                    best_cost,
                    evals,
                    blocks,
                    micros,
                }
            }),
        (any_string(), any::<u64>(), any_f64()).prop_map(|(workload, micros, cost)| {
            Event::Evaluation {
                workload,
                micros,
                cost,
            }
        }),
        (any_string(), any::<u64>(), any::<bool>()).prop_map(|(workload, micros, ok)| {
            Event::Measurement {
                workload,
                micros,
                ok,
            }
        }),
        (any_string(), any_string(), any_string()).prop_map(|(kind, workload, reason)| {
            Event::Fault {
                kind,
                workload,
                reason,
            }
        }),
        (any_string(), any_string(), 0..64usize, any_string()).prop_map(
            |(config, kind, after_blocks, reason)| Event::Elimination {
                config,
                kind,
                after_blocks,
                reason,
            }
        ),
        (any_string(), any_string())
            .prop_map(|(instance, reason)| Event::Quarantine { instance, reason }),
        (0..100usize, any_string())
            .prop_map(|(iteration, path)| Event::Checkpoint { iteration, path }),
        (
            any_f64(),
            0..10_000usize,
            0..1_000usize,
            0..100usize,
            any::<bool>(),
            any::<u64>()
        )
            .prop_map(
                |(best_cost, evals, retries, failed_configs, aborted, micros)| {
                    Event::CampaignEnd {
                        best_cost,
                        evals,
                        retries,
                        failed_configs,
                        aborted,
                        micros,
                    }
                }
            ),
        (0..64usize, any::<u64>()).prop_map(|(worker, pid)| Event::WorkerSpawned { worker, pid }),
        (0..64usize, any_string())
            .prop_map(|(worker, reason)| Event::WorkerFailed { worker, reason }),
        (0..64usize, any::<u64>())
            .prop_map(|(worker, failures)| Event::WorkerQuarantined { worker, failures }),
        (any_string(), any::<u64>()).prop_map(|(name, value)| Event::CounterFinal { name, value }),
        (any_string(), any::<u64>()).prop_map(|(name, value)| Event::GaugeFinal { name, value }),
        (
            any_string(),
            any::<u64>(),
            any::<u64>(),
            any::<u64>(),
            any::<u64>(),
            any::<u64>(),
            any::<u64>()
        )
            .prop_map(
                |(name, count, sum, p50, p90, p99, max)| Event::HistogramFinal {
                    name,
                    count,
                    sum,
                    p50,
                    p90,
                    p99,
                    max,
                }
            ),
    ]
    .boxed()
}

/// A generated JSON document, holding the typed values the writer was
/// given so the parsed tree can be checked against them exactly.
#[derive(Debug, Clone)]
enum Doc {
    Null,
    Bool(bool),
    U64(u64),
    F64(f64),
    Str(String),
    Arr(Vec<Doc>),
    Obj(Vec<(String, Doc)>),
}

/// Strings drawn from characters JSON must escape or carry through:
/// quotes, backslashes, control characters and non-ASCII.
fn json_string() -> BoxedStrategy<String> {
    const POOL: [char; 16] = [
        'a', ' ', '"', '\\', '/', '\n', '\r', '\t', '\u{0}', '\u{1f}', '\u{7f}', 'é', '漢', '🦀',
        '{', ':',
    ];
    collection::vec(0..POOL.len(), 0..8)
        .prop_map(|ix| ix.into_iter().map(|i| POOL[i]).collect())
        .boxed()
}

/// Floats with every edge case over-represented: signed zeros, the
/// smallest subnormal, NaN, both infinities, and random bit patterns.
fn json_f64() -> BoxedStrategy<f64> {
    prop_oneof![
        any_f64(),
        (0..6usize).prop_map(|i| {
            [
                -0.0,
                0.0,
                5e-324,
                f64::NAN,
                f64::INFINITY,
                f64::NEG_INFINITY,
            ][i]
        }),
    ]
    .boxed()
}

/// A leaf that a flat object (journal line, wire frame) may hold.
fn scalar_doc() -> BoxedStrategy<Doc> {
    prop_oneof![
        any::<bool>().prop_map(Doc::Bool),
        prop_oneof![any::<u64>(), Just(u64::MAX)].prop_map(Doc::U64),
        json_f64().prop_map(Doc::F64),
        json_string().prop_map(Doc::Str),
    ]
    .boxed()
}

/// A document with at most `depth` levels of arrays and objects.
fn nested_doc(depth: u32) -> BoxedStrategy<Doc> {
    let leaf = prop_oneof![Just(Doc::Null), scalar_doc()].boxed();
    if depth == 0 {
        return leaf;
    }
    prop_oneof![
        leaf.clone(),
        leaf,
        collection::vec(nested_doc(depth - 1), 0..4).prop_map(Doc::Arr),
        collection::vec((json_string(), nested_doc(depth - 1)), 0..4).prop_map(Doc::Obj),
    ]
    .boxed()
}

fn any_doc() -> BoxedStrategy<Doc> {
    prop_oneof![
        nested_doc(4),
        collection::vec((json_string(), scalar_doc()), 0..6).prop_map(Doc::Obj),
    ]
    .boxed()
}

fn to_value(doc: &Doc) -> Value {
    match doc {
        Doc::Null => Value::Null,
        Doc::Bool(b) => Value::from(*b),
        Doc::U64(n) => Value::from(*n),
        Doc::F64(x) => Value::from(*x),
        Doc::Str(s) => Value::from(s),
        Doc::Arr(items) => Value::arr(items.iter().map(to_value)),
        Doc::Obj(fields) => Value::obj(fields.iter().map(|(k, v)| (k, to_value(v)))),
    }
}

/// Whether `parsed` carries exactly `doc`: integers by value, floats by
/// bits, non-finite floats as their marker strings.
fn same(parsed: &Value, doc: &Doc) -> bool {
    match (parsed, doc) {
        (Value::Null, Doc::Null) => true,
        (Value::Bool(a), Doc::Bool(b)) => a == b,
        (Value::Num(t), Doc::U64(n)) => t.parse::<u64>() == Ok(*n),
        (Value::Num(t), Doc::F64(x)) => {
            x.is_finite() && t.parse::<f64>().map(f64::to_bits) == Ok(x.to_bits())
        }
        (Value::Str(m), Doc::F64(x)) => !x.is_finite() && *m == x.to_string(),
        (Value::Str(a), Doc::Str(b)) => a == b,
        (Value::Arr(a), Doc::Arr(b)) => {
            a.len() == b.len() && a.iter().zip(b).all(|(a, b)| same(a, b))
        }
        (Value::Obj(a), Doc::Obj(b)) => {
            a.len() == b.len()
                && a.iter()
                    .zip(b)
                    .all(|((ka, va), (kb, vb))| ka == kb && same(va, vb))
        }
        _ => false,
    }
}

/// A flat object: every field a string, number or boolean.
fn flat_fields(doc: &Doc) -> Option<&[(String, Doc)]> {
    match doc {
        Doc::Obj(fields)
            if fields.iter().all(|(_, v)| {
                matches!(v, Doc::Bool(_) | Doc::U64(_) | Doc::F64(_) | Doc::Str(_))
            }) =>
        {
            Some(fields)
        }
        _ => None,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Every generated document survives render → parse intact, and
    /// `parse_object` accepts exactly the flat ones — which the flat
    /// `Obj` writer renders to the very same bytes.
    #[test]
    fn json_documents_roundtrip(doc in any_doc()) {
        let text = to_value(&doc).to_string();
        let parsed = json::parse(&text).unwrap_or_else(|e| panic!("{e}: {text}"));
        prop_assert!(same(&parsed, &doc), "{text} parsed as {parsed:?}, wrote {doc:?}");
        prop_assert_eq!(parsed.to_string(), text.clone());

        let flat = flat_fields(&doc);
        prop_assert_eq!(json::parse_object(&text).is_ok(), flat.is_some(), "{}", text);
        if let Some(fields) = flat {
            let mut o = Obj::new();
            for (k, v) in fields {
                match v {
                    Doc::Bool(b) => o.bool(k, *b),
                    Doc::U64(n) => o.u64(k, *n),
                    Doc::F64(x) => o.f64(k, *x),
                    Doc::Str(s) => o.str(k, s),
                    _ => unreachable!("flat fields are scalars"),
                };
            }
            prop_assert_eq!(o.finish(), text.clone());
            let pairs = json::parse_object(&text).expect("flat object parses");
            for ((k, scalar), (key, v)) in pairs.iter().zip(fields) {
                let as_value = match scalar {
                    Scalar::Str(s) => Value::Str(s.clone()),
                    Scalar::Num(t) => Value::Num(t.clone()),
                    Scalar::Bool(b) => Value::Bool(*b),
                };
                prop_assert!(k == key && same(&as_value, v), "{}", text);
            }
        }
    }

    /// Every generated event sequence survives render → join → parse
    /// with order, timestamps and field values intact.
    #[test]
    fn event_sequences_roundtrip_losslessly(
        events in collection::vec((any::<u64>(), any_event()), 0..24),
    ) {
        let entries: Vec<JournalEntry> = events
            .into_iter()
            .map(|(t_us, event)| JournalEntry { t_us, event })
            .collect();
        let rendered: Vec<String> = entries.iter().map(JournalEntry::render).collect();
        let (parsed, errors) = parse_journal(&rendered.join("\n"));
        prop_assert!(errors.is_empty(), "parse errors: {errors:?}");
        prop_assert_eq!(parsed.len(), entries.len());
        for (back, line) in parsed.iter().zip(&rendered) {
            prop_assert_eq!(&back.render(), line);
        }
    }

    /// f64 payloads round-trip **bit-identically** — the property replay
    /// correctness rests on. Finite values (normals, subnormals, signed
    /// zeros) must come back with the exact same bit pattern; non-finite
    /// values are canonicalized by the marker-string encoding ("NaN",
    /// "inf", "-inf"), so NaN payload bits collapse to the canonical NaN
    /// and infinities stay exact.
    #[test]
    fn f64_payloads_roundtrip_as_bits(bits in any::<u64>()) {
        let v = f64::from_bits(bits);
        let entry = JournalEntry {
            t_us: 0,
            event: Event::IterationEnd {
                iteration: 0,
                survivors: 1,
                best_cost: v,
                evals: 0,
                blocks: 0,
                micros: 0,
            },
        };
        let back = JournalEntry::parse(&entry.render()).expect("roundtrip parse");
        let Event::IterationEnd { best_cost, .. } = back.event else {
            panic!("variant changed in roundtrip");
        };
        let expect = if v.is_nan() {
            f64::NAN.to_bits()
        } else if v.is_infinite() {
            v.to_bits()
        } else {
            bits
        };
        prop_assert_eq!(
            best_cost.to_bits(),
            expect,
            "payload bits changed: {:016x} -> {:016x}",
            bits,
            best_cost.to_bits()
        );
    }
}
