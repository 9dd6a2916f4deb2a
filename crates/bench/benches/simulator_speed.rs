//! Simulator throughput: how many instructions per second the in-order
//! and out-of-order timing models replay. Sniper's selling point is
//! cycle-level accounting at far-above-cycle-accurate speed; this bench
//! tracks our equivalent.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use racesim_kernels::{microbench_suite, Scale};
use racesim_sim::{Platform, Simulator};
use racesim_trace::CompactTrace;

fn kernel_trace(name: &str) -> CompactTrace {
    microbench_suite(Scale::TINY)
        .into_iter()
        .find(|w| w.name == name)
        .expect("kernel exists")
        .compact_trace()
        .expect("kernel runs")
}

fn bench_cores(c: &mut Criterion) {
    let mut group = c.benchmark_group("simulator_speed");
    for kernel in ["EI", "MD", "CCh", "DP1f"] {
        let trace = kernel_trace(kernel);
        group.throughput(Throughput::Elements(trace.len() as u64));
        let a53 = Simulator::new(Platform::a53_like());
        group.bench_with_input(BenchmarkId::new("in-order", kernel), &trace, |b, t| {
            b.iter(|| a53.run_compact(t).unwrap())
        });
        let a72 = Simulator::new(Platform::a72_like());
        group.bench_with_input(BenchmarkId::new("out-of-order", kernel), &trace, |b, t| {
            b.iter(|| a72.run_compact(t).unwrap())
        });
    }
    group.finish();
}

fn bench_emulator(c: &mut Criterion) {
    let workload = microbench_suite(Scale::TINY)
        .into_iter()
        .find(|w| w.name == "EI")
        .unwrap();
    let len = workload.compact_trace().unwrap().len() as u64;
    let mut group = c.benchmark_group("frontend");
    group.throughput(Throughput::Elements(len));
    group.bench_function("emulate_and_record", |b| {
        b.iter(|| workload.compact_trace().unwrap())
    });
    group.finish();
}

/// Criterion configuration: set `RACESIM_QUICK_BENCH=1` to shrink
/// measurement times (used by CI and the final smoke runs).
fn configured() -> Criterion {
    let c = Criterion::default();
    if std::env::var("RACESIM_QUICK_BENCH").is_ok() {
        c.measurement_time(std::time::Duration::from_secs(2))
            .warm_up_time(std::time::Duration::from_millis(500))
            .sample_size(10)
    } else {
        c
    }
}

criterion_group! {
    name = benches;
    config = configured();
    targets = bench_cores, bench_emulator
}
criterion_main!(benches);
