//! Kernel IR: a static CFG/dataflow representation of one kernel's decoded
//! micro-op stream, and the RA4xx lints built on top of it.
//!
//! Where [`crate::kernel`] runs a value-level abstract interpretation to
//! find specification bugs (uninitialised reads, wild branches), this module
//! builds the *structural* view the campaign-level passes need:
//!
//! * **Basic blocks** — leaders are the entry, every branch target
//!   (including indirect-branch candidates) and every post-terminator
//!   fallthrough, so a block's reachability equals the reachability of each
//!   instruction in it.
//! * **Liveness** — a backward dataflow over a 66-register bitmask. With
//!   every register live at exit blocks, a write is dead only when it is
//!   provably overwritten before any read on every path
//!   ([`Lint::KernelDeadWrite`]).
//! * **Loops** — DFS back edges and their natural loops, with an exit-edge
//!   check ([`Lint::KernelNoExitLoop`]) and, for the suite's
//!   `counted_loop` idiom, static trip counts
//!   ([`Lint::KernelDegenerateLoop`] when the body runs at most once).
//! * **[`KernelProfile`]** — what the parameter-coverage matrix consumes:
//!   per-class site counts ([`StaticSummary`]), memory footprint, branch
//!   site counts, and the best block-level ILP the kernel can expose.

use crate::diag::{Diagnostic, Lint};
use racesim_decoder::Decoder;
use racesim_isa::{InstClass, Opcode, Program, Reg, StaticInst};
use racesim_trace::StaticSummary;
use std::collections::BTreeSet;

/// Shared control-flow view of a program: the decoded instruction stream
/// plus the successor relation. [`crate::kernel`]'s abstract interpreter
/// and this module's CFG builder both walk exactly this relation, which is
/// what makes their reachability verdicts provably agree.
pub(crate) struct Flow<'a> {
    /// The program under analysis.
    pub prog: &'a Program,
    /// Decoded instruction per code slot (`None` if undecodable).
    pub insts: Vec<Option<StaticInst>>,
    /// Code indices a `br`/`blr` may jump to (pointer tables and patched
    /// `movz` address loads).
    pub indirect_targets: Vec<usize>,
}

impl<'a> Flow<'a> {
    pub fn new(prog: &'a Program) -> Flow<'a> {
        let insts = Decoder::new().decode_program(&prog.code);
        let mut flow = Flow {
            prog,
            insts,
            indirect_targets: Vec::new(),
        };
        flow.collect_indirect_targets();
        flow
    }

    /// Candidate targets for indirect branches: code addresses stored in
    /// data blobs (jump/function-pointer tables) and `movz` immediates
    /// that name a code address (patched `load_label_addr`).
    fn collect_indirect_targets(&mut self) {
        let mut targets = BTreeSet::new();
        for (_, bytes) in &self.prog.data {
            for chunk in bytes.chunks_exact(8) {
                let word = u64::from_le_bytes(chunk.try_into().unwrap());
                if let Some(idx) = self.prog.index_of(word) {
                    targets.insert(idx);
                }
            }
        }
        for (i, inst) in self.insts.iter().enumerate() {
            if self.opcode(i) == Some(Opcode::Movz) {
                let imm = inst.as_ref().unwrap().imm;
                if imm > 0 {
                    if let Some(idx) = self.prog.index_of(imm as u64) {
                        targets.insert(idx);
                    }
                }
            }
        }
        self.indirect_targets = targets.into_iter().collect();
    }

    /// Decoded opcode of slot `idx`, if the word decodes.
    pub fn opcode(&self, idx: usize) -> Option<Opcode> {
        self.insts[idx].as_ref().map(|i| i.opcode)
    }

    /// Resolved direct-branch target, if the opcode is a direct branch.
    pub fn direct_target(&self, idx: usize) -> Option<i64> {
        match self.opcode(idx) {
            Some(Opcode::B | Opcode::Bcond | Opcode::Cbz | Opcode::Cbnz | Opcode::Bl) => {
                Some(idx as i64 + self.insts[idx].as_ref().unwrap().imm)
            }
            _ => None,
        }
    }

    /// Static successors of instruction `idx`, clipped to the code range.
    /// Undecodable words fall through, like the abstract interpreter.
    pub fn successors(&self, idx: usize) -> Vec<usize> {
        let n = self.prog.code.len();
        let mut succ = Vec::with_capacity(2);
        let push = |i: i64, v: &mut Vec<usize>| {
            if i >= 0 && (i as usize) < n {
                v.push(i as usize);
            }
        };
        match self.opcode(idx) {
            Some(Opcode::Halt) | Some(Opcode::Ret) => {}
            Some(Opcode::B) => push(self.direct_target(idx).unwrap(), &mut succ),
            Some(Opcode::Bcond | Opcode::Cbz | Opcode::Cbnz | Opcode::Bl) => {
                push(self.direct_target(idx).unwrap(), &mut succ);
                push(idx as i64 + 1, &mut succ);
            }
            Some(Opcode::Br) => succ.extend(self.indirect_targets.iter().copied()),
            Some(Opcode::Blr) => {
                succ.extend(self.indirect_targets.iter().copied());
                push(idx as i64 + 1, &mut succ);
            }
            _ => push(idx as i64 + 1, &mut succ),
        }
        succ
    }

    /// Whether slot `idx` transfers control (its successor set is not the
    /// plain fallthrough) — such instructions terminate a basic block.
    fn is_terminator(&self, idx: usize) -> bool {
        matches!(
            self.opcode(idx),
            Some(
                Opcode::B
                    | Opcode::Bcond
                    | Opcode::Cbz
                    | Opcode::Cbnz
                    | Opcode::Bl
                    | Opcode::Br
                    | Opcode::Blr
                    | Opcode::Ret
                    | Opcode::Halt
            )
        )
    }
}

/// One basic block: the instruction range `[start, end)` plus its edges.
#[derive(Debug, Clone)]
pub struct Block {
    /// Index of the first instruction.
    pub start: usize,
    /// One past the index of the last instruction.
    pub end: usize,
    /// Successor block indices (deduplicated, sorted).
    pub succs: Vec<usize>,
    /// Predecessor block indices (deduplicated, sorted).
    pub preds: Vec<usize>,
}

impl Block {
    /// Number of instructions in the block.
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    /// Whether the block holds no instructions (never true for built IRs).
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }
}

/// A natural loop discovered from a DFS back edge.
#[derive(Debug, Clone)]
pub struct Loop {
    /// Header block index (the back edge's target).
    pub header: usize,
    /// Block index the back edge leaves from.
    pub latch: usize,
    /// All block indices in the loop body (including header and latch).
    pub body: Vec<usize>,
    /// Whether any body block can branch out of the loop or end the
    /// program; a loop without one can never terminate.
    pub has_exit: bool,
    /// Static trip count, when the loop matches the suite's
    /// `counted_loop` idiom (`mov64 ctr, N; ...; subi ctr, ctr, k;
    /// cbnz ctr, header`): `ceil(N / k)`.
    pub static_trip: Option<u64>,
}

/// The control-flow/dataflow IR of one kernel.
#[derive(Debug)]
pub struct KernelIr {
    /// Basic blocks in address order.
    pub blocks: Vec<Block>,
    /// Block index of each instruction.
    pub block_of: Vec<usize>,
    /// Whether each block is reachable from the entry.
    pub reachable: Vec<bool>,
    /// Natural loops, in back-edge discovery order.
    pub loops: Vec<Loop>,
    /// Live-register bitmask at each block's exit (bit = `Reg::index`).
    live_out: Vec<u128>,
}

/// Bitmask with one bit per architectural register slot.
const ALL_REGS: u128 = (1u128 << Reg::COUNT) - 1;

fn use_def(inst: Option<&StaticInst>) -> (u128, u128) {
    match inst {
        // Undecodable words: assume they read everything and write
        // nothing, so they never create or kill a dead-write finding.
        None => (ALL_REGS, 0),
        Some(i) => {
            let uses = i.sources().iter().fold(0u128, |m, r| m | 1 << r.index());
            let defs = i.dests().iter().fold(0u128, |m, r| m | 1 << r.index());
            (uses, defs)
        }
    }
}

impl KernelIr {
    /// Builds the IR: blocks, edges, reachability, liveness and loops.
    pub fn build(prog: &Program) -> KernelIr {
        let flow = Flow::new(prog);
        Self::from_flow(&flow)
    }

    fn from_flow(flow: &Flow<'_>) -> KernelIr {
        let n = flow.prog.code.len();
        if n == 0 {
            return KernelIr {
                blocks: Vec::new(),
                block_of: Vec::new(),
                reachable: Vec::new(),
                loops: Vec::new(),
                live_out: Vec::new(),
            };
        }

        // Leaders: entry, every control-transfer successor (all branch
        // targets are leaders, so block reachability is instruction
        // reachability), and every post-terminator fallthrough.
        let mut leaders = BTreeSet::from([0usize]);
        for idx in 0..n {
            if flow.is_terminator(idx) {
                leaders.extend(flow.successors(idx));
                if idx + 1 < n {
                    leaders.insert(idx + 1);
                }
            }
        }

        let starts: Vec<usize> = leaders.into_iter().collect();
        let mut blocks: Vec<Block> = starts
            .iter()
            .enumerate()
            .map(|(b, &start)| Block {
                start,
                end: starts.get(b + 1).copied().unwrap_or(n),
                succs: Vec::new(),
                preds: Vec::new(),
            })
            .collect();
        let mut block_of = vec![0usize; n];
        for (b, blk) in blocks.iter().enumerate() {
            block_of[blk.start..blk.end].fill(b);
        }

        // Edges: the last instruction's successors are all leaders.
        for blk in &mut blocks {
            let last = blk.end - 1;
            let mut succs: Vec<usize> =
                flow.successors(last).iter().map(|&t| block_of[t]).collect();
            succs.sort_unstable();
            succs.dedup();
            blk.succs = succs;
        }
        for b in 0..blocks.len() {
            for &s in &blocks[b].succs.clone() {
                blocks[s].preds.push(b);
            }
        }
        for blk in &mut blocks {
            blk.preds.sort_unstable();
            blk.preds.dedup();
        }

        // Reachability: BFS over block edges from the entry.
        let mut reachable = vec![false; blocks.len()];
        let mut work = vec![0usize];
        reachable[0] = true;
        while let Some(b) = work.pop() {
            for &s in &blocks[b].succs {
                if !reachable[s] {
                    reachable[s] = true;
                    work.push(s);
                }
            }
        }

        // Backward liveness to a fixed point. Exit blocks (no successors)
        // keep every register live, so only provably-overwritten writes
        // are ever reported dead.
        let mut use_mask = vec![0u128; blocks.len()];
        let mut def_mask = vec![0u128; blocks.len()];
        for (b, blk) in blocks.iter().enumerate() {
            let (mut uses, mut defs) = (0u128, 0u128);
            for idx in (blk.start..blk.end).rev() {
                let (u, d) = use_def(flow.insts[idx].as_ref());
                uses = (uses & !d) | u;
                defs |= d;
            }
            use_mask[b] = uses;
            def_mask[b] = defs;
        }
        let mut live_in = vec![0u128; blocks.len()];
        let mut live_out = vec![0u128; blocks.len()];
        loop {
            let mut changed = false;
            for b in (0..blocks.len()).rev() {
                let out = if blocks[b].succs.is_empty() {
                    ALL_REGS
                } else {
                    blocks[b].succs.iter().fold(0u128, |m, &s| m | live_in[s])
                };
                let inn = use_mask[b] | (out & !def_mask[b]);
                if out != live_out[b] || inn != live_in[b] {
                    live_out[b] = out;
                    live_in[b] = inn;
                    changed = true;
                }
            }
            if !changed {
                break;
            }
        }

        let mut ir = KernelIr {
            blocks,
            block_of,
            reachable,
            loops: Vec::new(),
            live_out,
        };
        ir.find_loops(flow);
        ir
    }

    /// DFS back-edge discovery plus natural-loop bodies, exit checks and
    /// `counted_loop` trip counts.
    fn find_loops(&mut self, flow: &Flow<'_>) {
        // Iterative DFS tracking the on-stack set.
        let nb = self.blocks.len();
        let mut color = vec![0u8; nb]; // 0 white, 1 on stack, 2 done
        let mut stack: Vec<(usize, usize)> = vec![(0, 0)];
        let mut back_edges: Vec<(usize, usize)> = Vec::new();
        color[0] = 1;
        while let Some(&mut (b, ref mut i)) = stack.last_mut() {
            if *i < self.blocks[b].succs.len() {
                let s = self.blocks[b].succs[*i];
                *i += 1;
                match color[s] {
                    0 => {
                        color[s] = 1;
                        stack.push((s, 0));
                    }
                    1 => back_edges.push((b, s)),
                    _ => {}
                }
            } else {
                color[b] = 2;
                stack.pop();
            }
        }

        for (latch, header) in back_edges {
            // Natural loop: header plus everything that reaches the latch
            // without passing through the header.
            let mut body = BTreeSet::from([header, latch]);
            let mut work = vec![latch];
            while let Some(b) = work.pop() {
                if b == header {
                    continue;
                }
                for &p in &self.blocks[b].preds {
                    if body.insert(p) {
                        work.push(p);
                    }
                }
            }
            let has_exit = body.iter().any(|&b| {
                let blk = &self.blocks[b];
                blk.succs.is_empty() || blk.succs.iter().any(|s| !body.contains(s))
            });
            let static_trip = self.counted_trip(flow, header, latch);
            self.loops.push(Loop {
                header,
                latch,
                body: body.into_iter().collect(),
                has_exit,
                static_trip,
            });
        }
    }

    /// Trip count for the `counted_loop` idiom: the latch ends in
    /// `cbnz ctr, header`, the counter's last pre-header write is a
    /// reconstructible `movz`/`movk` constant `N`, and the loop decrements
    /// it by `subi ctr, ctr, k`. The body then runs `ceil(N / k)` times.
    fn counted_trip(&self, flow: &Flow<'_>, header: usize, latch: usize) -> Option<u64> {
        let latch_last = self.blocks[latch].end - 1;
        let inst = flow.insts[latch_last].as_ref()?;
        if inst.opcode != Opcode::Cbnz
            || self.block_of[flow.direct_target(latch_last)? as usize] != header
        {
            return None;
        }
        let ctr = *inst.sources().first()?;

        // Reconstruct the counter constant with a forward scan up to the
        // header: movz sets, movk patches, anything else poisons.
        let mut value: Option<u64> = None;
        for idx in 0..self.blocks[header].start {
            let Some(i) = flow.insts[idx].as_ref() else {
                continue;
            };
            if i.dests().contains(&ctr) {
                value = match i.opcode {
                    Opcode::Movz => Some(i.imm as u64),
                    Opcode::Movk => value.map(|v| {
                        let slot = i.movk_slot as u32;
                        (v & !(0xffffu64 << (16 * slot))) | ((i.imm as u64) << (16 * slot))
                    }),
                    _ => None,
                };
            }
        }
        let n = value?;

        // Per-iteration decrement: a single `subi ctr, ctr, k` in the loop.
        let header_start = self.blocks[header].start;
        let latch_end = self.blocks[latch].end;
        let mut step: Option<u64> = None;
        for idx in header_start..latch_end {
            let Some(i) = flow.insts[idx].as_ref() else {
                continue;
            };
            if i.dests().contains(&ctr) {
                match (i.opcode, step) {
                    (Opcode::SubI, None) if i.imm > 0 => step = Some(i.imm as u64),
                    _ => return None, // not the plain counted idiom
                }
            }
        }
        let k = step?;
        Some(n.div_ceil(k))
    }

    /// Best instructions-per-critical-path-step over the reachable blocks:
    /// the ILP the kernel can expose to a wide issue stage.
    fn max_block_ilp(&self, flow: &Flow<'_>) -> f64 {
        let mut best = 1.0f64;
        for (b, blk) in self.blocks.iter().enumerate() {
            if !self.reachable[b] || blk.len() < 2 {
                continue;
            }
            let mut last_writer = [0usize; Reg::COUNT]; // depth of last def
            let mut longest = 0usize;
            let mut count = 0usize;
            for idx in blk.start..blk.end {
                let Some(i) = flow.insts[idx].as_ref() else {
                    continue;
                };
                count += 1;
                let depth = 1 + i
                    .sources()
                    .iter()
                    .map(|r| last_writer[r.index()])
                    .max()
                    .unwrap_or(0);
                for r in i.dests() {
                    last_writer[r.index()] = depth;
                }
                longest = longest.max(depth);
            }
            if longest > 0 {
                best = best.max(count as f64 / longest as f64);
            }
        }
        best
    }
}

/// Static profile of one kernel — the row the parameter-coverage matrix is
/// built from.
#[derive(Debug, Clone)]
pub struct KernelProfile {
    /// Kernel name.
    pub name: String,
    /// Per-class site counts over the *reachable* instructions.
    pub summary: StaticSummary,
    /// Code footprint in bytes (what the instruction cache sees).
    pub code_bytes: u64,
    /// Data footprint in bytes: data images plus reserved regions.
    pub data_bytes: u64,
    /// Reachable indirect-call (`blr`) sites. They count as calls in
    /// `summary`, but predict their targets like indirect branches.
    pub indirect_calls: u64,
    /// Total basic blocks.
    pub blocks: usize,
    /// Reachable basic blocks.
    pub reachable_blocks: usize,
    /// Natural loops found.
    pub loops: usize,
    /// Static trip counts of recognised counted loops.
    pub static_trips: Vec<u64>,
    /// Best block-level ILP (instructions / critical-path length).
    pub max_block_ilp: f64,
}

/// Builds the static profile of one kernel.
pub fn profile(name: &str, prog: &Program) -> KernelProfile {
    let flow = Flow::new(prog);
    let ir = KernelIr::from_flow(&flow);
    let reachable_insts = flow.insts.iter().enumerate().filter_map(|(idx, inst)| {
        let b = *ir.block_of.get(idx)?;
        if ir.reachable[b] {
            inst.as_ref()
        } else {
            None
        }
    });
    let summary = StaticSummary::of_insts(reachable_insts.clone());
    let indirect_calls = reachable_insts.filter(|i| i.opcode == Opcode::Blr).count() as u64;
    let data_bytes = prog.data.iter().map(|(_, b)| b.len() as u64).sum::<u64>()
        + prog.reserved.iter().map(|r| r.len).sum::<u64>();
    KernelProfile {
        name: name.to_string(),
        summary,
        code_bytes: prog.code_bytes(),
        data_bytes,
        indirect_calls,
        blocks: ir.blocks.len(),
        reachable_blocks: ir.reachable.iter().filter(|&&r| r).count(),
        loops: ir.loops.len(),
        static_trips: ir.loops.iter().filter_map(|l| l.static_trip).collect(),
        max_block_ilp: ir.max_block_ilp(&flow),
    }
}

/// Runs the RA4xx kernel-IR lints over one program.
pub fn check(prog: &Program) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    check_into(prog, &mut out);
    out
}

/// Runs the RA4xx kernel-IR lints, appending to `out`.
pub fn check_into(prog: &Program, out: &mut Vec<Diagnostic>) {
    let flow = Flow::new(prog);
    let ir = KernelIr::from_flow(&flow);

    // RA401: dead register writes. Walk each reachable block backward with
    // the live mask; a write whose every destination is overwritten before
    // any read (on all paths) did no architectural work. Loads are exempt
    // (kernels load into scratch registers purely for the memory timing),
    // as are `bl`/`blr` (the LR write is the call protocol) and
    // zero-register destinations.
    let mut dead: Vec<(usize, String, String)> = Vec::new();
    for (b, blk) in ir.blocks.iter().enumerate() {
        if !ir.reachable[b] {
            continue;
        }
        let mut live = ir.live_out[b];
        for idx in (blk.start..blk.end).rev() {
            let (uses, defs) = use_def(flow.insts[idx].as_ref());
            let inst = flow.insts[idx].as_ref();
            let exempt = inst.is_none_or(|i| {
                i.class == InstClass::Load
                    || matches!(i.opcode, Opcode::Bl | Opcode::Blr)
                    || i.dests().iter().all(|r| r.is_zero())
            });
            if !exempt && defs != 0 && defs & live == 0 {
                let i = inst.unwrap();
                let dests: Vec<String> = i.dests().iter().map(|r| format!("{r}")).collect();
                dead.push((idx, format!("{:?}", i.opcode), dests.join(",")));
            }
            live = (live & !defs) | uses;
        }
    }
    // Handwritten kernels get one diagnostic per dead write; generated
    // proxies with hundreds of intentional clobbers get a few examples
    // plus one summary, so they cannot bury the rest of the report.
    dead.sort_by_key(|&(idx, ..)| idx);
    const DEAD_WRITE_CAP: usize = 4;
    let per_site = if dead.len() > DEAD_WRITE_CAP {
        DEAD_WRITE_CAP - 1
    } else {
        dead.len()
    };
    for (idx, opcode, regs) in &dead[..per_site] {
        out.push(
            Diagnostic::new(
                Lint::KernelDeadWrite,
                "register write is overwritten before any read on every path",
            )
            .with("pc", format!("{:#x}", prog.pc_of(*idx)))
            .with("opcode", opcode.clone())
            .with("regs", regs.clone()),
        );
    }
    if dead.len() > DEAD_WRITE_CAP {
        out.push(
            Diagnostic::new(
                Lint::KernelDeadWrite,
                "register writes are overwritten before any read on every \
                 path: later instructions clobber the dependency chains \
                 these writes were meant to extend (first sites listed \
                 individually above)",
            )
            .with("total_sites", dead.len().to_string())
            .with("next_site", format!("{:#x}", prog.pc_of(dead[per_site].0))),
        );
    }

    for l in &ir.loops {
        let header_pc = format!("{:#x}", prog.pc_of(ir.blocks[l.header].start));
        // RA403: a loop no path leaves can never terminate — the kernel
        // would hang the functional front-end at trace-recording time.
        if !l.has_exit {
            out.push(
                Diagnostic::new(
                    Lint::KernelNoExitLoop,
                    "loop has no exit edge: the kernel cannot terminate",
                )
                .with("header_pc", header_pc.clone())
                .with("blocks", l.body.len()),
            );
        }
        // RA402: a counted loop whose body runs at most once measures
        // nothing steady-state — the timing signal is all warm-up.
        if let Some(trip) = l.static_trip {
            if trip <= 1 {
                out.push(
                    Diagnostic::new(
                        Lint::KernelDegenerateLoop,
                        format!("counted loop body runs {trip} time(s): no steady-state signal"),
                    )
                    .with("header_pc", header_pc)
                    .with("trip_count", trip),
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use racesim_isa::asm::Asm;

    fn diags(prog: &Program) -> Vec<Lint> {
        check(prog).into_iter().map(|d| d.lint).collect()
    }

    #[test]
    fn straight_line_kernel_is_one_block_and_clean() {
        let mut a = Asm::new();
        a.add(Reg::x(0), Reg::x(1), Reg::x(2));
        a.mul(Reg::x(3), Reg::x(0), Reg::x(0));
        a.halt();
        let p = a.finish();
        let ir = KernelIr::build(&p);
        assert_eq!(ir.blocks.len(), 1);
        assert!(ir.reachable[0]);
        assert!(ir.loops.is_empty());
        assert_eq!(diags(&p), vec![]);
    }

    #[test]
    fn overwritten_write_is_dead_but_final_write_is_not() {
        let mut a = Asm::new();
        a.movz(Reg::x(1), 5); // dead: overwritten before any read
        a.movz(Reg::x(1), 7);
        a.add(Reg::x(2), Reg::x(1), Reg::x(1));
        a.halt();
        let d = check(&a.finish());
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].lint, Lint::KernelDeadWrite);
        assert_eq!(d[0].context[0].1, "0x1000"); // the first movz only
    }

    #[test]
    fn loop_carried_work_is_not_dead() {
        // x2 is rewritten every iteration and only "used" by being kept
        // live across the exit — all-live-at-exit must keep this silent.
        let mut a = Asm::new();
        a.movz(Reg::x(1), 8);
        let top = a.here();
        a.mul(Reg::x(2), Reg::x(1), Reg::x(1));
        a.subi(Reg::x(1), Reg::x(1), 1);
        a.cbnz(Reg::x(1), top);
        a.halt();
        assert_eq!(diags(&a.finish()), vec![]);
    }

    #[test]
    fn counted_loop_trip_count_is_reconstructed() {
        let mut a = Asm::new();
        a.mov64(Reg::x(28), 100_000); // movz+movk reconstruction
        let top = a.here();
        a.add(Reg::x(0), Reg::x(0), Reg::x(1));
        a.subi(Reg::x(28), Reg::x(28), 1);
        a.cbnz(Reg::x(28), top);
        a.halt();
        let ir = KernelIr::build(&a.finish());
        assert_eq!(ir.loops.len(), 1);
        assert!(ir.loops[0].has_exit);
        assert_eq!(ir.loops[0].static_trip, Some(100_000));
    }

    #[test]
    fn degenerate_single_trip_loop_is_flagged() {
        let mut a = Asm::new();
        a.movz(Reg::x(28), 1);
        let top = a.here();
        a.add(Reg::x(0), Reg::x(0), Reg::x(1));
        a.subi(Reg::x(28), Reg::x(28), 1);
        a.cbnz(Reg::x(28), top);
        a.halt();
        assert!(diags(&a.finish()).contains(&Lint::KernelDegenerateLoop));
    }

    #[test]
    fn inescapable_loop_is_an_error() {
        let mut a = Asm::new();
        a.movz(Reg::x(1), 3);
        let top = a.here();
        a.add(Reg::x(0), Reg::x(0), Reg::x(1));
        a.b(top);
        a.halt(); // unreachable
        let d = check(&a.finish());
        assert!(d.iter().any(|d| d.lint == Lint::KernelNoExitLoop));
    }

    #[test]
    fn profile_reports_sites_and_footprint() {
        let mut a = Asm::new();
        let buf = a.reserve_initialized(4096, 64);
        a.mov64(Reg::x(1), buf);
        a.movz(Reg::x(28), 64);
        let top = a.here();
        a.ldr8(Reg::x(2), Reg::x(1), 0);
        a.str8(Reg::x(2), Reg::x(1), 8);
        a.subi(Reg::x(28), Reg::x(28), 1);
        a.cbnz(Reg::x(28), top);
        a.halt();
        let p = profile("probe", &a.finish());
        assert_eq!(p.summary.loads(), 1);
        assert_eq!(p.summary.stores(), 1);
        assert_eq!(p.summary.cond_branches(), 1);
        assert_eq!(p.data_bytes, 4096);
        assert_eq!(p.loops, 1);
        assert_eq!(p.static_trips, vec![64]);
        assert!(p.max_block_ilp >= 1.0);
        assert_eq!(p.blocks, p.reachable_blocks);
    }
}
