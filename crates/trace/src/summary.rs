//! Trace summary statistics.

use crate::record::TraceRecord;
use racesim_isa::{InstClass, Opcode};
use std::fmt;

/// Aggregate statistics of a trace, analogous to the dynamic instruction
/// counts reported in Table I of the paper.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TraceSummary {
    /// Total dynamic instructions.
    pub instructions: u64,
    /// Dynamic loads.
    pub loads: u64,
    /// Dynamic stores.
    pub stores: u64,
    /// Dynamic branches of any kind.
    pub branches: u64,
    /// Dynamic taken branches.
    pub taken_branches: u64,
    /// Dynamic indirect branches (`br`, `blr`, `ret`).
    pub indirect_branches: u64,
    /// Dynamic FP and SIMD operations.
    pub fp_simd: u64,
    /// Distinct program counters (static code footprint proxy).
    pub unique_pcs: u64,
}

impl TraceSummary {
    /// Computes a summary over a record slice.
    pub fn of(records: &[TraceRecord]) -> TraceSummary {
        TraceSummary::tally(records.iter().copied())
    }

    /// Computes a summary over a record stream.
    pub(crate) fn tally(records: impl Iterator<Item = TraceRecord>) -> TraceSummary {
        let mut s = TraceSummary::default();
        let mut pcs = std::collections::HashSet::new();
        for r in records {
            s.instructions += 1;
            pcs.insert(r.pc());
            let Some(op) = r.word().opcode() else {
                continue;
            };
            let class = op.class();
            match class {
                InstClass::Load => s.loads += 1,
                InstClass::Store => s.stores += 1,
                c if c.is_branch() => {
                    s.branches += 1;
                    if r.taken() {
                        s.taken_branches += 1;
                    }
                    if c.is_indirect_branch() || op == Opcode::Blr {
                        s.indirect_branches += 1;
                    }
                }
                c if c.is_fp_or_simd() => s.fp_simd += 1,
                _ => {}
            }
        }
        s.unique_pcs = pcs.len() as u64;
        s
    }

    /// Loads plus stores.
    pub fn memory_ops(&self) -> u64 {
        self.loads + self.stores
    }
}

impl fmt::Display for TraceSummary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} insts ({} loads, {} stores, {} branches [{} taken, {} indirect], {} fp/simd, {} unique pcs)",
            self.instructions,
            self.loads,
            self.stores,
            self.branches,
            self.taken_branches,
            self.indirect_branches,
            self.fp_simd,
            self.unique_pcs,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use racesim_isa::{asm::Asm, Reg};

    #[test]
    fn summary_counts_by_class() {
        // Assemble real words so opcode classification is exercised.
        let mut a = Asm::new();
        a.add(Reg::x(0), Reg::x(1), Reg::x(2)); // alu
        a.ldr8(Reg::x(1), Reg::x(2), 0); // load
        a.str8(Reg::x(1), Reg::x(2), 0); // store
        a.fadd(Reg::v(0), Reg::v(1), Reg::v(2)); // fp
        let l = a.here();
        a.b(l); // branch
        a.ret(); // indirect branch
        let p = a.finish();

        let records = vec![
            TraceRecord::plain(0x00, p.code[0]),
            TraceRecord::memory(0x04, p.code[1], 0x100),
            TraceRecord::memory(0x08, p.code[2], 0x108),
            TraceRecord::plain(0x0c, p.code[3]),
            TraceRecord::branch(0x10, p.code[4], true, 0x10),
            TraceRecord::branch(0x14, p.code[5], true, 0x00),
            // Re-execution of the first pc.
            TraceRecord::plain(0x00, p.code[0]),
        ];
        let s = TraceSummary::of(&records);
        assert_eq!(s.instructions, 7);
        assert_eq!(s.loads, 1);
        assert_eq!(s.stores, 1);
        assert_eq!(s.memory_ops(), 2);
        assert_eq!(s.branches, 2);
        assert_eq!(s.taken_branches, 2);
        assert_eq!(s.indirect_branches, 1);
        assert_eq!(s.fp_simd, 1);
        assert_eq!(s.unique_pcs, 6);
        let text = s.to_string();
        assert!(text.contains("7 insts"));
    }
}
