//! Configuration types for the memory hierarchy.
//!
//! Every field here is a candidate for the validation methodology: fields
//! documented in technical reference manuals are set from public
//! information (step 1), latencies are estimated with lmbench-style probes
//! (step 2), and the rest — hashing, prefetchers, ports, MSHRs, victim
//! entries, tag access — are exactly the kind of undisclosed parameters the
//! racing tuner searches over (steps 3–4).

use std::fmt;

/// Cache replacement policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Replacement {
    /// Least recently used (true LRU).
    Lru,
    /// Tree-based pseudo-LRU.
    PseudoLru,
    /// Pseudo-random (xorshift).
    Random,
    /// First-in first-out.
    Fifo,
}

impl fmt::Display for Replacement {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Replacement::Lru => "lru",
            Replacement::PseudoLru => "plru",
            Replacement::Random => "random",
            Replacement::Fifo => "fifo",
        };
        f.write_str(s)
    }
}

/// Set-index hashing scheme.
///
/// The paper: *"we implement mask-based, xor-based, and Mersenne modulo
/// address hashing for cache indexing"* (Section IV-A).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum IndexHash {
    /// Classic power-of-two bit selection.
    Mask,
    /// Upper tag bits XOR-folded into the index.
    Xor,
    /// Modulo by the largest prime not exceeding the set count
    /// (prime-number cache indexing, Kharbutli et al.).
    MersenneMod,
}

impl fmt::Display for IndexHash {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            IndexHash::Mask => "mask",
            IndexHash::Xor => "xor",
            IndexHash::MersenneMod => "mersenne",
        };
        f.write_str(s)
    }
}

/// Whether tags and data are accessed in series or in parallel.
///
/// Serial access saves energy but adds a cycle to the hit latency; it is
/// one of the undisclosed parameters the paper tunes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TagAccess {
    /// Tags and data probed together: no extra latency.
    Parallel,
    /// Data array accessed only after tag match: +1 cycle on hits.
    Serial,
}

impl fmt::Display for TagAccess {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            TagAccess::Parallel => "parallel",
            TagAccess::Serial => "serial",
        })
    }
}

/// Which prefetcher a cache level uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PrefetcherConfig {
    /// No prefetching.
    None,
    /// Prefetch the next sequential line on every miss.
    NextLine,
    /// PC-indexed stride prefetcher (Fu/Patel/Janssens style).
    Stride {
        /// Number of table entries (power of two).
        table_entries: u32,
        /// Prefetch distance, in strides ahead of the current access.
        degree: u8,
    },
    /// Global history buffer, delta-correlation flavour (Nesbit/Smith).
    Ghb {
        /// History buffer depth.
        buffer_entries: u32,
        /// Index-table entries (power of two).
        index_entries: u32,
        /// Number of deltas prefetched per trigger.
        degree: u8,
    },
}

impl PrefetcherConfig {
    /// A short name for reports.
    pub fn kind_name(&self) -> &'static str {
        match self {
            PrefetcherConfig::None => "none",
            PrefetcherConfig::NextLine => "next-line",
            PrefetcherConfig::Stride { .. } => "stride",
            PrefetcherConfig::Ghb { .. } => "ghb",
        }
    }
}

impl fmt::Display for PrefetcherConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PrefetcherConfig::Stride {
                table_entries,
                degree,
            } => write!(f, "stride({table_entries}x, d{degree})"),
            PrefetcherConfig::Ghb {
                buffer_entries,
                index_entries,
                degree,
            } => write!(f, "ghb({buffer_entries}/{index_entries}, d{degree})"),
            other => f.write_str(other.kind_name()),
        }
    }
}

/// Where a prefetcher trains and prefetches into.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PrefetchWhere {
    /// Train on L1D accesses, fill into L1D.
    L1,
    /// Train on L2 accesses, fill into L2.
    L2,
}

/// Configuration of one cache level.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CacheConfig {
    /// Capacity in KiB.
    pub size_kb: u32,
    /// Associativity (ways).
    pub assoc: u32,
    /// Line size in bytes (power of two).
    pub line_bytes: u32,
    /// Load-to-use latency of a hit, in cycles.
    pub latency: u64,
    /// Replacement policy.
    pub replacement: Replacement,
    /// Set-index hashing.
    pub hash: IndexHash,
    /// Tag/data access organisation.
    pub tag_access: TagAccess,
    /// Accesses accepted per cycle (port count).
    pub ports: u32,
    /// Miss-status holding registers (outstanding misses).
    pub mshrs: u32,
    /// Fully-associative victim-cache entries (0 disables it).
    pub victim_entries: u32,
    /// Whether stores allocate on miss (write-allocate).
    pub write_allocate: bool,
}

impl CacheConfig {
    /// Number of sets implied by size, associativity and line size.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is inconsistent (not a power-of-two set
    /// count, or zero-sized).
    pub fn num_sets(&self) -> u32 {
        let bytes = self.size_kb as u64 * 1024;
        let set_bytes = self.assoc as u64 * self.line_bytes as u64;
        assert!(set_bytes > 0, "cache way must hold at least one line");
        let sets = bytes / set_bytes;
        assert!(
            sets > 0 && sets.is_power_of_two(),
            "cache geometry must give a power-of-two set count, got {sets}"
        );
        sets as u32
    }

    /// A 32 KiB, 4-way, 64 B-line cache with sensible defaults.
    pub fn l1_default() -> CacheConfig {
        CacheConfig {
            size_kb: 32,
            assoc: 4,
            line_bytes: 64,
            latency: 3,
            replacement: Replacement::Lru,
            hash: IndexHash::Mask,
            tag_access: TagAccess::Parallel,
            ports: 1,
            mshrs: 4,
            victim_entries: 0,
            write_allocate: true,
        }
    }

    /// A 512 KiB, 16-way unified L2 with sensible defaults.
    pub fn l2_default() -> CacheConfig {
        CacheConfig {
            size_kb: 512,
            assoc: 16,
            line_bytes: 64,
            latency: 12,
            replacement: Replacement::Lru,
            hash: IndexHash::Mask,
            tag_access: TagAccess::Serial,
            ports: 1,
            mshrs: 8,
            victim_entries: 0,
            write_allocate: true,
        }
    }
}

/// Main-memory timing configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DramConfig {
    /// Flat access latency, in core cycles.
    pub latency: u64,
    /// Peak bandwidth, in bytes per core cycle.
    pub bytes_per_cycle: u32,
}

impl Default for DramConfig {
    fn default() -> DramConfig {
        DramConfig {
            latency: 160,
            bytes_per_cycle: 8,
        }
    }
}

/// TLB configuration (optional model component).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TlbConfig {
    /// Number of entries (fully associative).
    pub entries: u32,
    /// Page size in bytes (power of two).
    pub page_bytes: u32,
    /// Page-walk penalty on a miss, in cycles.
    pub miss_penalty: u64,
}

impl Default for TlbConfig {
    fn default() -> TlbConfig {
        TlbConfig {
            entries: 48,
            page_bytes: 4096,
            miss_penalty: 30,
        }
    }
}

/// Full hierarchy configuration: split L1s, unified L2, DRAM, optional TLB
/// and an optional prefetcher.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HierarchyConfig {
    /// L1 instruction cache.
    pub l1i: CacheConfig,
    /// L1 data cache.
    pub l1d: CacheConfig,
    /// Unified second-level cache.
    pub l2: CacheConfig,
    /// Main memory.
    pub dram: DramConfig,
    /// Data TLB; `None` leaves translation unmodelled.
    pub tlb: Option<TlbConfig>,
    /// Data prefetcher.
    pub prefetcher: PrefetcherConfig,
    /// Which level the prefetcher trains on and fills.
    pub prefetch_where: PrefetchWhere,
    /// Whether a hit on a prefetched line re-triggers the prefetcher
    /// (the paper lists "whether to prefetch after a prefetch hit" as a
    /// tunable boolean).
    pub prefetch_on_prefetch_hit: bool,
}

impl Default for HierarchyConfig {
    fn default() -> HierarchyConfig {
        HierarchyConfig {
            l1i: CacheConfig::l1_default(),
            l1d: CacheConfig::l1_default(),
            l2: CacheConfig::l2_default(),
            dram: DramConfig::default(),
            tlb: None,
            prefetcher: PrefetcherConfig::None,
            prefetch_where: PrefetchWhere::L1,
            prefetch_on_prefetch_hit: false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_count_from_geometry() {
        let c = CacheConfig::l1_default();
        // 32 KiB / (4 ways * 64 B) = 128 sets.
        assert_eq!(c.num_sets(), 128);
        let l2 = CacheConfig::l2_default();
        // 512 KiB / (16 * 64) = 512 sets.
        assert_eq!(l2.num_sets(), 512);
    }

    #[test]
    #[should_panic(expected = "power-of-two")]
    fn non_power_of_two_sets_rejected() {
        let c = CacheConfig {
            size_kb: 48,
            assoc: 4,
            line_bytes: 64,
            ..CacheConfig::l1_default()
        };
        let _ = c.num_sets();
    }

    #[test]
    fn display_formats() {
        assert_eq!(Replacement::PseudoLru.to_string(), "plru");
        assert_eq!(IndexHash::MersenneMod.to_string(), "mersenne");
        assert_eq!(TagAccess::Serial.to_string(), "serial");
        assert_eq!(
            PrefetcherConfig::Stride {
                table_entries: 64,
                degree: 2
            }
            .to_string(),
            "stride(64x, d2)"
        );
        assert_eq!(PrefetcherConfig::None.to_string(), "none");
    }

    #[test]
    fn defaults_are_consistent() {
        let h = HierarchyConfig::default();
        assert_eq!(h.l1d.num_sets(), 128);
        assert!(h.tlb.is_none());
        assert_eq!(h.prefetcher.kind_name(), "none");
    }
}
