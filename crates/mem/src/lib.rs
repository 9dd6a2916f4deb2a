//! # racesim-mem
//!
//! Cache-hierarchy, TLB and DRAM timing models.
//!
//! This crate provides the memory-side substrate that the paper's Sniper-ARM
//! models configure: multi-level set-associative caches with configurable
//! size, associativity, line size, replacement policy, **index hashing**
//! (mask, XOR-folded, and Mersenne-prime modulo — the three schemes the
//! paper adds for cache indexing), ports, MSHRs, a victim cache, serial or
//! parallel tag/data access, and a pluggable **prefetcher zoo** (next-line,
//! PC-indexed stride, and GHB delta-correlation — the paper adds stride
//! \[38\] and GHB \[39\] prefetching as tunable options).
//!
//! The central type is [`MemoryHierarchy`]: core timing models call
//! [`MemoryHierarchy::access`] with a memory operation and a cycle, and get
//! back the load-to-use latency and the level that serviced the request.
//! Bandwidth is modelled with per-level port regulators, and misses consume
//! MSHRs.
//!
//! All structural parameters live in plain `Copy` config types
//! ([`HierarchyConfig`], [`CacheConfig`], …) so the tuning framework can
//! mutate them mechanically.
//!
//! # Example
//!
//! ```
//! use racesim_mem::{HierarchyConfig, MemoryHierarchy, MemOp};
//!
//! let mut mem = MemoryHierarchy::new(&HierarchyConfig::default());
//! let cold = mem.access(MemOp::Load, 0x8000, 0, 0);
//! let warm = mem.access(MemOp::Load, 0x8000, 0, cold.ready_at(0));
//! assert!(cold.latency > warm.latency, "second access hits in L1");
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod cache;
mod config;
mod dram;
mod hash;
mod hierarchy;
mod prefetch;
mod tlb;

pub use cache::{Cache, CacheStats, LookupOutcome};
pub use config::{
    CacheConfig, DramConfig, HierarchyConfig, IndexHash, PrefetchWhere, PrefetcherConfig,
    Replacement, TagAccess, TlbConfig,
};
pub use dram::Dram;
pub use hash::SetIndexer;
pub use hierarchy::{AccessResult, HierarchyStats, Level, MemOp, MemoryHierarchy};
pub use prefetch::{GhbPrefetcher, NextLinePrefetcher, Prefetcher, StridePrefetcher, MAX_DEGREE};
pub use tlb::{Tlb, TlbStats};
