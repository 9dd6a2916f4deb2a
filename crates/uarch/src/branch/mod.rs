//! Branch prediction unit.
//!
//! The paper calls the branch predictor the canonical "specialized
//! component … usually not disclosed at all" and therefore an "ideal
//! candidate for automated tuning". This module provides the predictor
//! zoo the tuner selects from: four direction predictors, a set-associative
//! BTB, a return-address stack and an optional path-history indirect
//! predictor (added in the paper's step 5 after `CS1` exposed the missing
//! indirect-branch support).

mod btb;
mod direction;
mod indirect;
mod ras;

pub use btb::Btb;
pub use direction::{
    BimodalPredictor, DirectionPredictor, GsharePredictor, StaticPredictor, TournamentPredictor,
};
pub use indirect::PathHistoryPredictor;
pub use ras::ReturnAddressStack;

use racesim_isa::{DynInst, InstClass};

/// Direction-predictor selection and sizing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DirPredictorConfig {
    /// Always predict taken.
    StaticTaken,
    /// Always predict not-taken.
    StaticNotTaken,
    /// 2-bit counters indexed by PC.
    Bimodal {
        /// log2 of the counter-table size.
        table_bits: u8,
    },
    /// Global history XOR PC indexing a 2-bit counter table.
    Gshare {
        /// log2 of the counter-table size.
        table_bits: u8,
        /// Global-history length in bits.
        history_bits: u8,
    },
    /// Bimodal + gshare with a choice predictor.
    Tournament {
        /// log2 of each component table size.
        table_bits: u8,
        /// Global-history length for the gshare component.
        history_bits: u8,
    },
}

/// Indirect-target predictor selection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IndirectPredictorConfig {
    /// No dedicated predictor: indirect branches use the BTB's last-seen
    /// target.
    BtbOnly,
    /// Path-history hashed target cache.
    PathHistory {
        /// log2 of the target-cache size.
        table_bits: u8,
        /// Path-history length in bits.
        history_bits: u8,
    },
}

/// Full branch-unit configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BranchConfig {
    /// Direction predictor.
    pub direction: DirPredictorConfig,
    /// Branch target buffer entries (power of two).
    pub btb_entries: u32,
    /// BTB associativity.
    pub btb_ways: u32,
    /// Indirect-target predictor.
    pub indirect: IndirectPredictorConfig,
    /// Return-address stack depth.
    pub ras_entries: u32,
    /// Full pipeline-flush penalty on a mispredict, in cycles.
    pub mispredict_penalty: u64,
    /// Front-end bubble when a taken branch misses the BTB, in cycles.
    pub btb_miss_penalty: u64,
}

impl Default for BranchConfig {
    fn default() -> BranchConfig {
        BranchConfig {
            direction: DirPredictorConfig::Bimodal { table_bits: 12 },
            btb_entries: 256,
            btb_ways: 2,
            indirect: IndirectPredictorConfig::BtbOnly,
            ras_entries: 8,
            mispredict_penalty: 8,
            btb_miss_penalty: 2,
        }
    }
}

/// How the front-end was redirected by one branch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BranchResolution {
    /// Prediction fully correct: no front-end disturbance.
    Correct,
    /// Taken branch with the right direction/target but no BTB entry:
    /// short fetch bubble.
    BtbMiss,
    /// Wrong direction or wrong target: full flush.
    Mispredict,
}

/// Per-unit prediction statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BranchStats {
    /// Conditional/indirect/call/return branches seen.
    pub branches: u64,
    /// Full mispredicts.
    pub mispredicts: u64,
    /// Direction mispredicts (subset of `mispredicts`).
    pub direction_mispredicts: u64,
    /// Indirect-target mispredicts (subset of `mispredicts`).
    pub indirect_mispredicts: u64,
    /// Return-target mispredicts (subset of `mispredicts`).
    pub return_mispredicts: u64,
    /// Taken branches that missed the BTB.
    pub btb_misses: u64,
}

impl BranchStats {
    /// Mispredicts per kilo-branch (diagnostic).
    pub fn mpkb(&self) -> f64 {
        if self.branches == 0 {
            0.0
        } else {
            1000.0 * self.mispredicts as f64 / self.branches as f64
        }
    }
}

/// The assembled branch prediction unit.
#[derive(Debug)]
pub struct BranchUnit {
    direction: Box<dyn DirectionPredictor>,
    btb: Btb,
    indirect: Option<PathHistoryPredictor>,
    ras: ReturnAddressStack,
    stats: BranchStats,
    /// Penalties, surfaced for the core models.
    pub mispredict_penalty: u64,
    /// Fetch-bubble cycles on a BTB miss.
    pub btb_miss_penalty: u64,
}

impl BranchUnit {
    /// Builds a branch unit from its configuration.
    pub fn new(cfg: &BranchConfig) -> BranchUnit {
        let direction: Box<dyn DirectionPredictor> = match cfg.direction {
            DirPredictorConfig::StaticTaken => Box::new(StaticPredictor::taken()),
            DirPredictorConfig::StaticNotTaken => Box::new(StaticPredictor::not_taken()),
            DirPredictorConfig::Bimodal { table_bits } => {
                Box::new(BimodalPredictor::new(table_bits))
            }
            DirPredictorConfig::Gshare {
                table_bits,
                history_bits,
            } => Box::new(GsharePredictor::new(table_bits, history_bits)),
            DirPredictorConfig::Tournament {
                table_bits,
                history_bits,
            } => Box::new(TournamentPredictor::new(table_bits, history_bits)),
        };
        let indirect = match cfg.indirect {
            IndirectPredictorConfig::BtbOnly => None,
            IndirectPredictorConfig::PathHistory {
                table_bits,
                history_bits,
            } => Some(PathHistoryPredictor::new(table_bits, history_bits)),
        };
        BranchUnit {
            direction,
            btb: Btb::new(cfg.btb_entries, cfg.btb_ways),
            indirect,
            ras: ReturnAddressStack::new(cfg.ras_entries),
            stats: BranchStats::default(),
            mispredict_penalty: cfg.mispredict_penalty,
            btb_miss_penalty: cfg.btb_miss_penalty,
        }
    }

    /// Statistics accumulated so far.
    pub fn stats(&self) -> BranchStats {
        self.stats
    }

    /// Predicts a dynamic branch, updates all structures with the actual
    /// outcome, and reports how the front-end was disturbed.
    ///
    /// Non-branch instructions are rejected.
    ///
    /// # Panics
    ///
    /// Panics (debug builds) if `inst` is not a branch.
    pub fn resolve(&mut self, inst: &DynInst) -> BranchResolution {
        debug_assert!(inst.stat.is_branch(), "resolve() requires a branch");
        self.stats.branches += 1;
        let pc = inst.pc;
        let actual_taken = inst.taken;
        let actual_target = if actual_taken {
            inst.target
        } else {
            inst.fallthrough()
        };

        let mut resolution = BranchResolution::Correct;
        match inst.stat.class {
            InstClass::BranchCond => {
                let predicted_taken = self.direction.predict(pc);
                self.direction.update(pc, actual_taken);
                if predicted_taken != actual_taken {
                    self.stats.direction_mispredicts += 1;
                    resolution = BranchResolution::Mispredict;
                } else if actual_taken && self.btb.lookup(pc).is_none_or(|t| t != actual_target) {
                    resolution = BranchResolution::BtbMiss;
                }
            }
            InstClass::BranchUncond => {
                // Direction always known; only the target supply (BTB)
                // matters for the fetch stream.
                if self.btb.lookup(pc).is_none_or(|t| t != actual_target) {
                    resolution = BranchResolution::BtbMiss;
                }
            }
            InstClass::BranchCall => {
                self.ras.push(inst.fallthrough());
                // Direct calls behave like unconditional branches; indirect
                // calls (blr) predict through the indirect path.
                if inst.stat.opcode == racesim_isa::Opcode::Blr {
                    let predicted = self.predict_indirect(pc);
                    self.update_indirect(pc, actual_target);
                    if predicted != Some(actual_target) {
                        self.stats.indirect_mispredicts += 1;
                        resolution = BranchResolution::Mispredict;
                    }
                } else if self.btb.lookup(pc).is_none_or(|t| t != actual_target) {
                    resolution = BranchResolution::BtbMiss;
                }
            }
            InstClass::BranchRet => {
                let predicted = self.ras.pop();
                if predicted != Some(actual_target) {
                    self.stats.return_mispredicts += 1;
                    resolution = BranchResolution::Mispredict;
                }
            }
            InstClass::BranchIndirect => {
                let predicted = self.predict_indirect(pc);
                self.update_indirect(pc, actual_target);
                if predicted != Some(actual_target) {
                    self.stats.indirect_mispredicts += 1;
                    resolution = BranchResolution::Mispredict;
                }
            }
            _ => unreachable!("non-branch class"),
        }

        // Train the BTB with every taken branch.
        if actual_taken {
            if resolution == BranchResolution::BtbMiss {
                self.stats.btb_misses += 1;
            }
            self.btb.update(pc, actual_target);
        }
        if resolution == BranchResolution::Mispredict {
            self.stats.mispredicts += 1;
        }
        resolution
    }

    fn predict_indirect(&mut self, pc: u64) -> Option<u64> {
        match self.indirect.as_mut() {
            Some(p) => p.predict(pc),
            None => self.btb.lookup(pc),
        }
    }

    fn update_indirect(&mut self, pc: u64, target: u64) {
        if let Some(p) = self.indirect.as_mut() {
            p.update(pc, target);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use racesim_isa::{asm::Asm, Cond, Reg, StaticInst};

    fn branch_inst(class_src: &str, pc: u64, taken: bool, target: u64) -> DynInst {
        let mut a = Asm::new();
        let l = a.here();
        match class_src {
            "cond" => a.bcond(Cond::Ne, l),
            "uncond" => a.b(l),
            "indirect" => a.br(Reg::x(1)),
            "call" => a.bl(l),
            "icall" => a.blr(Reg::x(1)),
            "ret" => a.ret(),
            _ => unreachable!(),
        }
        let p = a.finish();
        let stat: StaticInst = racesim_decoder::Decoder::new().decode(p.code[0]).unwrap();
        DynInst {
            pc,
            stat,
            ea: 0,
            taken,
            target,
        }
    }

    fn unit(direction: DirPredictorConfig, indirect: IndirectPredictorConfig) -> BranchUnit {
        BranchUnit::new(&BranchConfig {
            direction,
            indirect,
            ..BranchConfig::default()
        })
    }

    #[test]
    fn biased_branches_become_predictable() {
        let mut u = unit(
            DirPredictorConfig::Bimodal { table_bits: 10 },
            IndirectPredictorConfig::BtbOnly,
        );
        let mut mis = 0;
        for _ in 0..100 {
            let i = branch_inst("cond", 0x1000, true, 0x2000);
            if u.resolve(&i) == BranchResolution::Mispredict {
                mis += 1;
            }
        }
        assert!(mis <= 2, "bimodal learns a always-taken branch: {mis}");
    }

    #[test]
    fn gshare_learns_alternating_patterns() {
        let mut bim = unit(
            DirPredictorConfig::Bimodal { table_bits: 10 },
            IndirectPredictorConfig::BtbOnly,
        );
        let mut gsh = unit(
            DirPredictorConfig::Gshare {
                table_bits: 10,
                history_bits: 8,
            },
            IndirectPredictorConfig::BtbOnly,
        );
        let mut mis_b = 0;
        let mut mis_g = 0;
        for k in 0..400u64 {
            let taken = k % 2 == 0;
            let i = branch_inst("cond", 0x1000, taken, 0x2000);
            if bim.resolve(&i) == BranchResolution::Mispredict {
                mis_b += 1;
            }
            if gsh.resolve(&i) == BranchResolution::Mispredict {
                mis_g += 1;
            }
        }
        assert!(
            mis_g * 4 < mis_b,
            "gshare ({mis_g}) should crush bimodal ({mis_b}) on T/NT patterns"
        );
    }

    #[test]
    fn returns_predicted_by_the_ras() {
        let mut u = unit(
            DirPredictorConfig::StaticTaken,
            IndirectPredictorConfig::BtbOnly,
        );
        // call from 0x1000 -> 0x8000, return to 0x1004.
        let call = branch_inst("call", 0x1000, true, 0x8000);
        assert_ne!(u.resolve(&call), BranchResolution::Mispredict);
        let ret = branch_inst("ret", 0x8000, true, 0x1004);
        assert_eq!(u.resolve(&ret), BranchResolution::Correct);
        assert_eq!(u.stats().return_mispredicts, 0);
    }

    #[test]
    fn deep_recursion_overflows_a_shallow_ras() {
        let mut u = BranchUnit::new(&BranchConfig {
            ras_entries: 2,
            direction: DirPredictorConfig::StaticTaken,
            ..BranchConfig::default()
        });
        // Three nested calls then three returns: the first return pops a
        // clobbered entry.
        for d in 0..3u64 {
            let call = branch_inst("call", 0x1000 + d * 4, true, 0x8000 + d * 0x100);
            u.resolve(&call);
        }
        let mut mis = 0;
        for d in (0..3u64).rev() {
            let ret = branch_inst("ret", 0x8000 + d * 0x100, true, 0x1004 + d * 4);
            if u.resolve(&ret) == BranchResolution::Mispredict {
                mis += 1;
            }
        }
        assert!(mis >= 1, "overflowed RAS must mispredict");
    }

    #[test]
    fn indirect_cycling_targets_need_path_history() {
        let targets = [0x2000u64, 0x3000, 0x4000, 0x5000];
        let run = |mut u: BranchUnit| {
            let mut mis = 0;
            for k in 0..400usize {
                let t = targets[k % targets.len()];
                let i = branch_inst("indirect", 0x1000, true, t);
                if u.resolve(&i) == BranchResolution::Mispredict {
                    mis += 1;
                }
            }
            mis
        };
        let mis_btb = run(unit(
            DirPredictorConfig::StaticTaken,
            IndirectPredictorConfig::BtbOnly,
        ));
        let mis_path = run(unit(
            DirPredictorConfig::StaticTaken,
            IndirectPredictorConfig::PathHistory {
                table_bits: 10,
                history_bits: 8,
            },
        ));
        assert!(
            mis_path * 4 < mis_btb,
            "path history ({mis_path}) should beat BTB-only ({mis_btb})"
        );
    }

    #[test]
    fn btb_miss_is_reported_once_then_learned() {
        let mut u = unit(
            DirPredictorConfig::StaticTaken,
            IndirectPredictorConfig::BtbOnly,
        );
        let i = branch_inst("uncond", 0x1000, true, 0x9000);
        assert_eq!(u.resolve(&i), BranchResolution::BtbMiss);
        assert_eq!(u.resolve(&i), BranchResolution::Correct);
        assert_eq!(u.stats().btb_misses, 1);
    }

    #[test]
    fn stats_aggregate() {
        let mut u = unit(
            DirPredictorConfig::StaticNotTaken,
            IndirectPredictorConfig::BtbOnly,
        );
        for _ in 0..10 {
            let i = branch_inst("cond", 0x1000, true, 0x2000);
            u.resolve(&i);
        }
        let s = u.stats();
        assert_eq!(s.branches, 10);
        assert_eq!(s.mispredicts, 10, "static not-taken always wrong here");
        assert!(s.mpkb() > 999.0);
    }
}
