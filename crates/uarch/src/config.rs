//! Core configuration.

use crate::branch::BranchConfig;
use crate::latency::LatencyTable;

/// Which pipeline organisation a core uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CoreKind {
    /// In-order, dual-issue (Cortex-A53-like).
    InOrder,
    /// Out-of-order (Cortex-A72-like).
    OutOfOrder,
}

impl std::fmt::Display for CoreKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            CoreKind::InOrder => "in-order",
            CoreKind::OutOfOrder => "out-of-order",
        })
    }
}

/// Front-end (fetch/decode) configuration, shared by both core kinds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrontendConfig {
    /// Instructions fetched per cycle.
    pub fetch_width: u8,
    /// Front-end pipeline depth in cycles (fetch → issue/dispatch); sets
    /// the floor of the branch-misprediction refill time together with
    /// [`BranchConfig::mispredict_penalty`](crate::branch::BranchConfig).
    pub depth: u8,
}

impl Default for FrontendConfig {
    fn default() -> FrontendConfig {
        FrontendConfig {
            fetch_width: 2,
            depth: 3,
        }
    }
}

/// Parameters specific to the in-order pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InOrderParams {
    /// Issue width (the A53 dual-issues).
    pub issue_width: u8,
    /// Number of simple integer ALU pipes.
    pub int_alu_units: u8,
    /// Number of FP/SIMD pipes.
    pub fp_units: u8,
    /// Whether the integer divider blocks its unit for the full latency.
    pub div_blocking: bool,
    /// Store-buffer entries (stores drain to the hierarchy in program
    /// order; a full buffer stalls issue).
    pub store_buffer: u8,
    /// Maximum memory operations issued per cycle (the A53 LSU accepts
    /// one).
    pub mem_per_cycle: u8,
}

impl Default for InOrderParams {
    fn default() -> InOrderParams {
        InOrderParams {
            issue_width: 2,
            int_alu_units: 2,
            fp_units: 1,
            div_blocking: true,
            store_buffer: 4,
            mem_per_cycle: 1,
        }
    }
}

/// Issue-port counts of the out-of-order engine.
///
/// The Cortex-A72 issues into eight pipelines: two simple-ALU, one
/// multi-cycle integer, two FP/SIMD, one branch, one load and one store.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PortCounts {
    /// Simple integer ALU ports.
    pub int_alu: u8,
    /// Multi-cycle integer (multiply/divide) ports.
    pub int_mul: u8,
    /// FP/SIMD ports.
    pub fp: u8,
    /// Load ports.
    pub load: u8,
    /// Store ports.
    pub store: u8,
    /// Branch ports.
    pub branch: u8,
}

impl Default for PortCounts {
    fn default() -> PortCounts {
        PortCounts {
            int_alu: 2,
            int_mul: 1,
            fp: 2,
            load: 1,
            store: 1,
            branch: 1,
        }
    }
}

/// Parameters specific to the out-of-order pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OooParams {
    /// Instructions renamed/dispatched per cycle (A72: 3).
    pub dispatch_width: u8,
    /// Reorder-buffer entries (A72: 128).
    pub rob_entries: u16,
    /// Unified issue-queue capacity.
    pub iq_entries: u16,
    /// Load-queue entries.
    pub lq_entries: u16,
    /// Store-queue entries.
    pub sq_entries: u16,
    /// Instructions retired per cycle.
    pub retire_width: u8,
    /// Issue ports.
    pub ports: PortCounts,
    /// Store-to-load forwarding latency, in cycles.
    pub stlf_latency: u64,
    /// Whether the integer divider blocks its port.
    pub div_blocking: bool,
}

impl Default for OooParams {
    fn default() -> OooParams {
        OooParams {
            dispatch_width: 3,
            rob_entries: 128,
            iq_entries: 48,
            lq_entries: 16,
            sq_entries: 16,
            retire_width: 3,
            ports: PortCounts::default(),
            stlf_latency: 4,
            div_blocking: true,
        }
    }
}

/// Complete configuration of one core's timing model.
///
/// This is the object the validation methodology manipulates: public
/// information fills some fields (step 1), lmbench-style probes fill cache
/// latencies (step 2, in the companion `HierarchyConfig`), and iterated
/// racing searches the rest.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CoreConfig {
    /// Pipeline organisation.
    pub kind: CoreKind,
    /// Core clock, in GHz (used only for reporting; timing is in cycles).
    pub frequency_ghz: f64,
    /// Front-end configuration.
    pub frontend: FrontendConfig,
    /// Branch unit configuration.
    pub branch: BranchConfig,
    /// Execution latencies.
    pub lat: LatencyTable,
    /// In-order engine parameters (used when `kind` is `InOrder`).
    pub inorder: InOrderParams,
    /// Out-of-order engine parameters (used when `kind` is `OutOfOrder`).
    pub ooo: OooParams,
}

impl CoreConfig {
    /// An in-order core with A53-flavoured defaults.
    pub fn in_order_default() -> CoreConfig {
        CoreConfig {
            kind: CoreKind::InOrder,
            frequency_ghz: 1.51,
            frontend: FrontendConfig::default(),
            branch: BranchConfig::default(),
            lat: LatencyTable::a53_like(),
            inorder: InOrderParams::default(),
            ooo: OooParams::default(),
        }
    }

    /// An out-of-order core with A72-flavoured defaults.
    pub fn out_of_order_default() -> CoreConfig {
        CoreConfig {
            kind: CoreKind::OutOfOrder,
            frequency_ghz: 1.99,
            frontend: FrontendConfig {
                fetch_width: 3,
                depth: 5,
            },
            branch: BranchConfig {
                mispredict_penalty: 12,
                ..BranchConfig::default()
            },
            lat: LatencyTable::a72_like(),
            inorder: InOrderParams::default(),
            ooo: OooParams::default(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_plausible() {
        let io = CoreConfig::in_order_default();
        assert_eq!(io.kind, CoreKind::InOrder);
        assert_eq!(io.inorder.issue_width, 2);
        let ooo = CoreConfig::out_of_order_default();
        assert_eq!(ooo.kind, CoreKind::OutOfOrder);
        assert!(ooo.ooo.rob_entries >= 64);
        assert!(ooo.branch.mispredict_penalty > io.branch.mispredict_penalty);
    }

    #[test]
    fn kind_displays() {
        assert_eq!(CoreKind::InOrder.to_string(), "in-order");
        assert_eq!(CoreKind::OutOfOrder.to_string(), "out-of-order");
    }
}
