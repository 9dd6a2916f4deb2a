//! Property test: any sequence of journal events round-trips through the
//! JSONL sink and parser losslessly.
//!
//! Entries are compared by their rendered lines rather than by value, so
//! NaN-carrying events (where `PartialEq` would lie) are still checked
//! exactly: parse(render(e)) must re-render to the identical line.

use proptest::prelude::*;
use proptest::strategy::BoxedStrategy;
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
            (any::<u64>(), any::<bool>())
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
                    (max_iterations, static_bounds),
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
                        static_bounds,
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
        (any_string(), 0..100usize, any_f64(), any_f64()).prop_map(
            |(config, iteration, lower_bound, incumbent_cost)| Event::StaticEliminated {
                config,
                iteration,
                lower_bound,
                incumbent_cost,
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

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
