//! Simulated platform description.

use racesim_mem::{CacheConfig, HierarchyConfig};
use racesim_uarch::CoreConfig;

/// A complete single-core platform: core timing model plus memory
/// hierarchy.
///
/// This is the unit of configuration the validation methodology tunes: the
/// paper counts "about a hundred parameters that define the simulated
/// processor", of which 64 are passed to irace. In this project those
/// parameters are fields of [`CoreConfig`] and
/// [`HierarchyConfig`]; the schema that exposes them to the
/// tuner lives in `racesim-core`.
#[derive(Debug, Clone, PartialEq)]
pub struct Platform {
    /// Human-readable platform name (reports only).
    pub name: String,
    /// Core timing configuration.
    pub core: CoreConfig,
    /// Memory hierarchy configuration.
    pub mem: HierarchyConfig,
}

impl Platform {
    /// A platform resembling the publicly documented shape of a
    /// Cortex-A53: dual-issue in-order, 32 KiB L1I/L1D, 512 KiB L2.
    ///
    /// Values *not* publicly documented are left at generic defaults —
    /// exactly the situation the validation methodology starts from.
    pub fn a53_like() -> Platform {
        let mut mem = HierarchyConfig {
            l1i: CacheConfig {
                size_kb: 32,
                assoc: 2,
                latency: 2,
                ..CacheConfig::l1_default()
            },
            l1d: CacheConfig {
                size_kb: 32,
                assoc: 4,
                latency: 3,
                ..CacheConfig::l1_default()
            },
            l2: CacheConfig {
                size_kb: 512,
                assoc: 16,
                latency: 15,
                ..CacheConfig::l2_default()
            },
            ..HierarchyConfig::default()
        };
        mem.dram.latency = 170;
        Platform {
            name: "a53-like".to_string(),
            core: CoreConfig::in_order_default(),
            mem,
        }
    }

    /// A platform resembling the publicly documented shape of a
    /// Cortex-A72: 3-wide out-of-order, 48 KiB L1I, 32 KiB L1D, 1 MiB L2.
    pub fn a72_like() -> Platform {
        let mut mem = HierarchyConfig {
            l1i: CacheConfig {
                size_kb: 48,
                assoc: 3,
                latency: 2,
                ..CacheConfig::l1_default()
            },
            l1d: CacheConfig {
                size_kb: 32,
                assoc: 2,
                latency: 4,
                ..CacheConfig::l1_default()
            },
            l2: CacheConfig {
                size_kb: 1024,
                assoc: 16,
                latency: 18,
                ..CacheConfig::l2_default()
            },
            ..HierarchyConfig::default()
        };
        mem.dram.latency = 190;
        mem.dram.bytes_per_cycle = 16;
        Platform {
            name: "a72-like".to_string(),
            core: CoreConfig::out_of_order_default(),
            mem,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preset_geometries_are_consistent() {
        let a53 = Platform::a53_like();
        assert_eq!(a53.mem.l1d.num_sets(), 128);
        assert_eq!(a53.mem.l1i.num_sets(), 256);
        let a72 = Platform::a72_like();
        assert_eq!(a72.mem.l1i.num_sets(), 256);
        assert_eq!(a72.mem.l1d.num_sets(), 256);
        assert_ne!(a53.core.kind, a72.core.kind);
    }
}
