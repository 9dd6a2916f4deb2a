//! Prefetcher shoot-out on the memory-hierarchy micro-benchmarks: the
//! options the paper adds as tunables — none, next-line, stride and GHB —
//! head to head, plus the effect of cache index hashing on the
//! conflict-miss kernels (`MC`, `MCS`).
//!
//! Run with: `cargo run --release --example prefetcher_duel`

use racesim::mem::{IndexHash, PrefetcherConfig};
use racesim::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let kernels: Vec<Workload> = microbench_suite(Scale::TINY)
        .into_iter()
        .filter(|w| w.category == Category::MemoryHierarchy)
        .collect();
    let traces: Vec<_> = kernels
        .iter()
        .map(|w| w.compact_trace().expect("kernels run"))
        .collect();

    let prefetchers: [(&str, PrefetcherConfig); 4] = [
        ("none", PrefetcherConfig::None),
        ("next-line", PrefetcherConfig::NextLine),
        (
            "stride",
            PrefetcherConfig::Stride {
                table_entries: 64,
                degree: 2,
            },
        ),
        (
            "ghb",
            PrefetcherConfig::Ghb {
                buffer_entries: 128,
                index_entries: 64,
                degree: 2,
            },
        ),
    ];

    println!("CPI per prefetcher (memory kernels, A53-like core):\n");
    print!("{:<14}", "kernel");
    for (name, _) in &prefetchers {
        print!("{name:>12}");
    }
    println!();
    for (w, t) in kernels.iter().zip(&traces) {
        print!("{:<14}", w.name);
        for (_, pf) in &prefetchers {
            let mut platform = Platform::a53_like();
            platform.mem.prefetcher = *pf;
            let stats = Simulator::new(platform).run_compact(t)?;
            print!("{:>12.3}", stats.cpi());
        }
        println!();
    }

    // Index hashing on the conflict kernels.
    println!("\ncache index hashing on the conflict kernels (CPI):\n");
    println!(
        "{:<14}{:>12}{:>12}{:>12}",
        "kernel", "mask", "xor", "mersenne"
    );
    for (w, t) in kernels.iter().zip(&traces) {
        if !["MC", "MCS", "MD"].contains(&w.name.as_str()) {
            continue;
        }
        print!("{:<14}", w.name);
        for hash in [IndexHash::Mask, IndexHash::Xor, IndexHash::MersenneMod] {
            let mut platform = Platform::a53_like();
            platform.mem.l1d.hash = hash;
            let stats = Simulator::new(platform).run_compact(t)?;
            print!("{:>12.3}", stats.cpi());
        }
        println!();
    }
    println!(
        "\nMC strides by exactly one L1 set-span, so mask indexing thrashes one set while \
         xor/Mersenne spread the blocks — this is why the paper makes hashing tunable."
    );
    Ok(())
}
