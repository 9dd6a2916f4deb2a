//! Static CPI bounds: an abstract interpretation over the kernel IR that
//! brackets, per (kernel, configuration), the CPI the timing models can
//! produce — before any simulation runs.
//!
//! The pass works in two stages so a 40-kernel suite can be bounded
//! against thousands of configurations cheaply:
//!
//! 1. **Config-independent summary** ([`KernelBounds::build`]): walk the
//!    [`KernelIr`] once, weighting each reachable block by the product of
//!    its enclosing loops' trip intervals (`[T, T]` for the recognised
//!    `counted_loop` idiom, `[1, trip_budget]` otherwise). This yields a
//!    dynamic-instruction interval per timing class, the memory/code
//!    footprints, and every *loop-carried dependence chain* — an
//!    instruction whose destination feeds its own next execution and that
//!    nothing else in the loop redefines.
//! 2. **Config evaluation** ([`KernelBounds::cpi_interval`]): fold an
//!    applied [`Platform`] over the summary. The lower bound is the max
//!    of sound throughput and latency arguments (issue-width floor,
//!    per-port occupancy, blocking-divider serialisation, dependence
//!    chains × execution latency); the upper bound serialises the worst
//!    per-instruction cost (full miss chains, mispredict refills) plus
//!    amortised cold misses.
//!
//! **Soundness domain.** Trip counts are trusted exactly where
//! [`crate::ir`] resolves them — the single-entry `counted_loop` idiom the
//! kernel generators emit. Traces are never truncated (the emulator
//! errors instead of clipping at its instruction limit), so every
//! simulated stream is the whole program and the ratio-form bounds apply
//! as computed. The proptest in `crates/core/tests` holds every
//! simulated CPI inside its interval.

use crate::diag::{Diagnostic, Lint};
use crate::interval::Interval;
use crate::ir::{Flow, KernelIr};
use racesim_isa::{InstClass, Program, INST_BYTES};
use racesim_mem::{CacheConfig, HierarchyConfig, PrefetchWhere, PrefetcherConfig, TagAccess};
use racesim_race::{Configuration, Domain, ParamSpace, Value};
use racesim_sim::Platform;
use racesim_uarch::CoreKind;

/// Hard ceiling on reported CPI upper bounds, so unknown-trip loops keep
/// JSON output finite.
pub const CPI_CAP: f64 = 1e18;

/// Relative slack applied to the final interval: covers f64 summation
/// rounding, nothing structural.
const REL_SLACK: f64 = 1e-6;

/// Extra cycles folded into every worst-case miss chain for queueing and
/// hand-off effects the closed-form chain does not enumerate.
const CHAIN_SLOP: f64 = 16.0;

/// Tuning knobs for the bounds pass.
#[derive(Debug, Clone, Copy)]
pub struct BoundsOptions {
    /// Trip-count interval `[1, trip_budget]` assumed for loops the IR
    /// cannot resolve statically.
    pub trip_budget: u64,
}

impl Default for BoundsOptions {
    fn default() -> BoundsOptions {
        BoundsOptions {
            trip_budget: 1 << 20,
        }
    }
}

/// A loop-carried dependence chain: one instruction whose destination is
/// among its own sources and is redefined by nothing else inside the
/// chain's loops, so consecutive executions are at least one execution
/// latency apart in *both* core models. A chained load (pointer chase)
/// serialises through the memory system instead: every hop costs at
/// least the L1D hit latency — or, on an out-of-order core whose kernel
/// also stores, the store-to-load forwarding latency if that is lower.
#[derive(Debug, Clone, Copy)]
pub struct ChainSite {
    /// Timing class of the chained instruction (never store or branch).
    pub class: InstClass,
    /// Guaranteed serialised repetitions minus the pipelined first one:
    /// `outer_trips.lo * (chained_trips.lo - 1)`.
    pub reps: f64,
}

/// One loop-carried dependence *cycle* threading several registers: a
/// closed walk in a loop body's register dataflow graph (`x2 → v0 → v1 →
/// x3 → x2`-style recurrences a single [`ChainSite`] cannot see). Every
/// edge is a sole-writer register def-use, so one traversal of the cycle
/// costs the sum of its nodes' completion latencies and advances exactly
/// [`crossings`](RecurrenceCycle::crossings) loop iterations — the
/// classic critical-recurrence lower bound on the loop's initiation
/// interval.
#[derive(Debug, Clone)]
pub struct RecurrenceCycle {
    /// Timing classes on the cycle with multiplicity.
    pub counts: Vec<(InstClass, u32)>,
    /// Iteration boundaries one traversal crosses (edges whose reader
    /// sits at or before its writer in program order); always ≥ 1.
    pub crossings: u32,
    /// Guaranteed activations of the owning loop (product of ancestor
    /// trip lower bounds).
    pub outer: f64,
    /// The owning loop's own guaranteed trip count.
    pub span: f64,
}

/// The config-independent bounds summary of one kernel.
#[derive(Debug, Clone)]
pub struct KernelBounds {
    /// Kernel name.
    pub name: String,
    /// Dynamic instruction count interval, `Halt` excluded (the timing
    /// models never see it).
    pub dyn_insts: Interval,
    /// Data footprint in bytes (data images plus reserved regions).
    pub data_bytes: u64,
    /// Code footprint in bytes.
    pub code_bytes: u64,
    /// Loop-carried dependence chains found.
    pub chains: Vec<ChainSite>,
    /// Multi-instruction loop-carried dependence cycles found.
    pub cycles: Vec<RecurrenceCycle>,
    /// Trip-weighted dynamic count interval per timing class.
    class_counts: [Interval; InstClass::COUNT],
}

/// Caps on the cycle enumeration so a pathological loop body cannot blow
/// up the build pass; dropping cycles only weakens the bound, never
/// breaks soundness.
const MAX_CYCLES_PER_LOOP: usize = 64;
const MAX_CYCLE_DFS_STEPS: usize = 20_000;

/// Enumerates the simple cycles of a small digraph, each rooted at (and
/// reported starting from) its minimal node so no cycle appears twice.
fn enumerate_cycles(adj: &[Vec<usize>]) -> Vec<Vec<usize>> {
    fn dfs(
        u: usize,
        root: usize,
        adj: &[Vec<usize>],
        on_path: &mut [bool],
        path: &mut Vec<usize>,
        out: &mut Vec<Vec<usize>>,
        steps: &mut usize,
    ) {
        for &v in &adj[u] {
            *steps += 1;
            if *steps > MAX_CYCLE_DFS_STEPS || out.len() >= MAX_CYCLES_PER_LOOP {
                return;
            }
            if v == root {
                out.push(path.clone());
            } else if v > root && !on_path[v] {
                on_path[v] = true;
                path.push(v);
                dfs(v, root, adj, on_path, path, out, steps);
                path.pop();
                on_path[v] = false;
            }
        }
    }
    let mut out = Vec::new();
    let mut steps = 0usize;
    for root in 0..adj.len() {
        let mut on_path = vec![false; adj.len()];
        on_path[root] = true;
        dfs(
            root,
            root,
            adj,
            &mut on_path,
            &mut vec![root],
            &mut out,
            &mut steps,
        );
    }
    out
}

/// How the static working-set estimate classifies this kernel's loads
/// against one configuration's cache geometry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MemResidency {
    /// Footprint provably fits L1D under any set mapping.
    L1Resident,
    /// Footprint provably fits L2 under any set mapping.
    L2Resident,
    /// No residency guarantee: every access may go to DRAM.
    DramBound,
}

impl KernelBounds {
    /// Builds the summary by one pass over the kernel IR.
    pub fn build(name: &str, prog: &Program, opts: &BoundsOptions) -> KernelBounds {
        let flow = Flow::new(prog);
        let ir = KernelIr::build(prog);
        let nb = ir.blocks.len();

        // Trip interval per loop: exact for the counted idiom, the
        // conservative budget otherwise.
        let trips: Vec<Interval> = ir
            .loops
            .iter()
            .map(|l| match l.static_trip {
                Some(t) => Interval::point(t as f64),
                None => Interval::new(1.0, opts.trip_budget as f64),
            })
            .collect();

        // The unconditional prefix: blocks reached from the entry through
        // single-successor edges only. A natural loop is entered through
        // its header, so a prefix block inside a loop body executes on
        // every iteration — its count is the full product of enclosing
        // trip counts. Everything else may be branched around: lower
        // count 0.
        let mut on_prefix = vec![false; nb];
        if nb > 0 {
            let mut b = 0usize;
            loop {
                on_prefix[b] = true;
                match ir.blocks[b].succs.as_slice() {
                    [s] if !on_prefix[*s] => b = *s,
                    _ => break,
                }
            }
        }

        let weight_of = |b: usize| -> Interval {
            let mut w = Interval::point(1.0);
            for (li, l) in ir.loops.iter().enumerate() {
                if l.body.contains(&b) {
                    w = w * trips[li];
                }
            }
            if !on_prefix[b] {
                w.lo = 0.0;
            }
            w
        };

        let mut class_counts = [Interval::zero(); InstClass::COUNT];
        for (b, blk) in ir.blocks.iter().enumerate() {
            if !ir.reachable[b] {
                continue;
            }
            let w = weight_of(b);
            for idx in blk.start..blk.end {
                if let Some(inst) = flow.insts[idx].as_ref() {
                    if inst.class != InstClass::Halt {
                        class_counts[inst.class.index()] = class_counts[inst.class.index()] + w;
                    }
                }
            }
        }
        let dyn_insts = class_counts
            .iter()
            .fold(Interval::zero(), |acc, &c| acc + c);

        // Reachable definition sites per register, for the sole-writer
        // test below.
        let mut def_blocks: Vec<Vec<(usize, usize)>> = vec![Vec::new(); racesim_isa::Reg::COUNT];
        for (b, blk) in ir.blocks.iter().enumerate() {
            if !ir.reachable[b] {
                continue;
            }
            for idx in blk.start..blk.end {
                if let Some(inst) = flow.insts[idx].as_ref() {
                    for r in inst.dests() {
                        def_blocks[r.index()].push((idx, b));
                    }
                }
            }
        }

        // Dependence chains. For an instruction on the unconditional
        // prefix whose destination feeds itself, split its enclosing
        // loops into those where it is the register's only writer (the
        // chain runs across all their iterations) and the rest (each
        // entry restarts the chain): the serialised repetition count is
        // outer.lo * (inner.lo - 1).
        let mut chains = Vec::new();
        for (b, blk) in ir.blocks.iter().enumerate() {
            if !on_prefix[b] || !ir.reachable[b] {
                continue;
            }
            let enclosing: Vec<usize> = (0..ir.loops.len())
                .filter(|&li| ir.loops[li].body.contains(&b))
                .collect();
            if enclosing.is_empty() {
                continue;
            }
            for idx in blk.start..blk.end {
                let Some(inst) = flow.insts[idx].as_ref() else {
                    continue;
                };
                let c = inst.class;
                if matches!(c, InstClass::Store | InstClass::Halt) || c.is_branch() {
                    continue;
                }
                for d in inst.dests() {
                    if d.is_zero() || !inst.sources().contains(d) {
                        continue;
                    }
                    let mut inner = 1.0f64;
                    let mut outer = 1.0f64;
                    for &li in &enclosing {
                        let sole = def_blocks[d.index()]
                            .iter()
                            .all(|&(j, jb)| j == idx || !ir.loops[li].body.contains(&jb));
                        if sole {
                            inner *= trips[li].lo;
                        } else {
                            outer *= trips[li].lo;
                        }
                    }
                    let reps = outer * (inner - 1.0);
                    if reps > 0.0 {
                        chains.push(ChainSite { class: c, reps });
                    }
                }
            }
        }

        // Dependence cycles threading several registers. Per loop, build
        // the register dataflow graph over the instructions guaranteed to
        // run on every iteration (prefix blocks whose innermost loop is
        // this one); an edge is a sole-writer def-use, so a consumer's
        // issue always waits for that producer's completion. Each simple
        // cycle of the graph is a loop recurrence: one traversal costs the
        // sum of the cycle's completion latencies and advances as many
        // iterations as it has program-order back edges.
        let innermost: Vec<Option<usize>> = (0..nb)
            .map(|b| {
                (0..ir.loops.len())
                    .filter(|&li| ir.loops[li].body.contains(&b))
                    .min_by_key(|&li| ir.loops[li].body.len())
            })
            .collect();
        let mut cycles = Vec::new();
        for li in 0..ir.loops.len() {
            let mut nodes: Vec<(usize, usize)> = Vec::new();
            for (b, blk) in ir.blocks.iter().enumerate() {
                if !on_prefix[b] || !ir.reachable[b] || innermost[b] != Some(li) {
                    continue;
                }
                for idx in blk.start..blk.end {
                    if let Some(inst) = flow.insts[idx].as_ref() {
                        let c = inst.class;
                        if matches!(c, InstClass::Store | InstClass::Halt) || c.is_branch() {
                            continue;
                        }
                        nodes.push((idx, b));
                    }
                }
            }
            if nodes.is_empty() {
                continue;
            }
            // Reaching definitions, register by register. The nodes are
            // straight-line prefix code executed in program order every
            // iteration, so if *all* of a register's in-loop writers are
            // nodes, the definition reaching a use is exactly the last
            // prior writer — or, at the top of the body, the last writer
            // of the previous iteration (an iteration-crossing edge).
            // Any writer outside the node set (a conditional block, an
            // excluded class) makes the reaching definition uncertain
            // and drops that register's edges entirely.
            let mut adj: Vec<Vec<usize>> = vec![Vec::new(); nodes.len()];
            for (d, defs) in def_blocks.iter().enumerate() {
                let writers: Vec<usize> = defs
                    .iter()
                    .filter(|&&(_, jb)| ir.loops[li].body.contains(&jb))
                    .map(|&(j, _)| j)
                    .collect();
                if writers.is_empty() {
                    continue;
                }
                let writer_nodes: Option<Vec<usize>> = writers
                    .iter()
                    .map(|&j| nodes.iter().position(|&(idx, _)| idx == j))
                    .collect();
                let Some(mut writer_nodes) = writer_nodes else {
                    continue;
                };
                writer_nodes.sort_by_key(|&u| nodes[u].0);
                for (v, &(iv, _)) in nodes.iter().enumerate() {
                    let inst_v = flow.insts[iv].as_ref().expect("node instructions decode");
                    if !inst_v.sources().iter().any(|r| r.index() == d) {
                        continue;
                    }
                    let producer = writer_nodes
                        .iter()
                        .rev()
                        .find(|&&u| nodes[u].0 < iv)
                        .or(writer_nodes.last())
                        .copied()
                        .expect("writer list is non-empty");
                    if !adj[producer].contains(&v) {
                        adj[producer].push(v);
                    }
                }
            }
            let outer: f64 = (0..ir.loops.len())
                .filter(|&lj| lj != li && ir.loops[lj].body.contains(&nodes[0].1))
                .map(|lj| trips[lj].lo)
                .product();
            let span = trips[li].lo;
            for path in enumerate_cycles(&adj) {
                let mut counts = [0u32; InstClass::COUNT];
                let mut crossings = 0u32;
                for (k, &u) in path.iter().enumerate() {
                    let v = path[(k + 1) % path.len()];
                    // An edge whose reader sits at or before its writer
                    // reads the previous iteration's value.
                    if nodes[v].0 <= nodes[u].0 {
                        crossings += 1;
                    }
                    let class = flow.insts[nodes[u].0]
                        .as_ref()
                        .expect("node instructions decode")
                        .class;
                    counts[class.index()] += 1;
                }
                debug_assert!(crossings >= 1, "a dataflow cycle must cross an iteration");
                cycles.push(RecurrenceCycle {
                    counts: InstClass::ALL
                        .iter()
                        .copied()
                        .filter(|c| counts[c.index()] > 0)
                        .map(|c| (c, counts[c.index()]))
                        .collect(),
                    crossings: crossings.max(1),
                    outer,
                    span,
                });
            }
        }

        let data_bytes = prog.data.iter().map(|(_, b)| b.len() as u64).sum::<u64>()
            + prog.reserved.iter().map(|r| r.len).sum::<u64>();
        KernelBounds {
            name: name.to_string(),
            dyn_insts,
            data_bytes,
            code_bytes: prog.code_bytes(),
            chains,
            cycles,
            class_counts,
        }
    }

    /// Dynamic count interval of one timing class.
    pub fn class_count(&self, c: InstClass) -> Interval {
        self.class_counts[c.index()]
    }

    /// Classifies this kernel's loads against a cache hierarchy: a
    /// residency guarantee holds only when the footprint fits the level's
    /// associativity (so no set can overflow under *any* index hash) and
    /// no prefetcher can pollute that level.
    pub fn residency(&self, mem: &HierarchyConfig) -> MemResidency {
        let lines = |c: &CacheConfig| self.data_bytes.div_ceil(c.line_bytes as u64);
        let l1_safe = matches!(mem.prefetcher, PrefetcherConfig::None)
            || mem.prefetch_where == PrefetchWhere::L2;
        if lines(&mem.l1d) <= mem.l1d.assoc as u64 && l1_safe {
            MemResidency::L1Resident
        } else if lines(&mem.l2) <= mem.l2.assoc as u64
            && matches!(mem.prefetcher, PrefetcherConfig::None)
        {
            MemResidency::L2Resident
        } else {
            MemResidency::DramBound
        }
    }

    /// The CPI interval of this kernel on an applied platform.
    pub fn cpi_interval(&self, p: &Platform) -> Interval {
        let n = self.dyn_insts;
        if n.lo < 1.0 {
            return Interval::new(0.0, CPI_CAP);
        }
        let lo = self.cpi_lower(p);
        let hi = self.cpi_upper(p).min(CPI_CAP);
        Interval::new(lo, hi).widen_relative(REL_SLACK)
    }

    /// The trivial throughput floor every core shape obeys: one over the
    /// narrowest pipeline stage.
    pub fn trivial_floor(p: &Platform) -> f64 {
        let w = match p.core.kind {
            CoreKind::InOrder => p.core.inorder.issue_width as f64,
            CoreKind::OutOfOrder => (p.core.frontend.fetch_width as f64)
                .min(p.core.ooo.dispatch_width as f64)
                .min(p.core.ooo.retire_width as f64),
        };
        1.0 / w.max(1.0)
    }

    fn cpi_lower(&self, p: &Platform) -> f64 {
        let n = self.dyn_insts;
        let lat = &p.core.lat;
        let frac = |c: InstClass| self.class_counts[c.index()].fraction_of(n).lo;
        let fp_classes = InstClass::ALL.iter().copied().filter(|c| c.is_fp_or_simd());
        let branch_classes = InstClass::ALL.iter().copied().filter(|c| c.is_branch());

        let mut best = Self::trivial_floor(p);
        let mut push = |t: f64| {
            if t > best {
                best = t;
            }
        };

        match p.core.kind {
            CoreKind::InOrder => {
                let io = &p.core.inorder;
                push((frac(InstClass::Load) + frac(InstClass::Store)) / io.mem_per_cycle as f64);
                push(branch_classes.clone().map(frac).sum::<f64>());
                push(frac(InstClass::IntMul) + frac(InstClass::IntDiv));
                push(fp_classes.clone().map(frac).sum::<f64>() / (io.fp_units as f64).max(1.0));
                push(frac(InstClass::IntAlu) / (io.int_alu_units as f64).max(1.0));
                if io.div_blocking {
                    push(frac(InstClass::IntDiv) * lat.int_div as f64);
                    push(
                        frac(InstClass::FpDiv) * lat.fp_div as f64
                            + frac(InstClass::FpSqrt) * lat.fp_sqrt as f64,
                    );
                }
            }
            CoreKind::OutOfOrder => {
                let ports = &p.core.ooo.ports;
                push(frac(InstClass::Load) / (ports.load as f64).max(1.0));
                push(frac(InstClass::Store) / (ports.store as f64).max(1.0));
                push(
                    branch_classes.clone().map(frac).sum::<f64>() / (ports.branch as f64).max(1.0),
                );
                push(frac(InstClass::IntAlu) / (ports.int_alu as f64).max(1.0));
                let (div_occ, fp_div_occ) = if p.core.ooo.div_blocking {
                    (lat.int_div as f64, true)
                } else {
                    (1.0, false)
                };
                push(
                    (frac(InstClass::IntMul) + frac(InstClass::IntDiv) * div_occ)
                        / (ports.int_mul as f64).max(1.0),
                );
                let fp_occ: f64 = fp_classes
                    .clone()
                    .map(|c| {
                        let per = if fp_div_occ {
                            match c {
                                InstClass::FpDiv => lat.fp_div as f64,
                                InstClass::FpSqrt => lat.fp_sqrt as f64,
                                _ => 1.0,
                            }
                        } else {
                            1.0
                        };
                        frac(c) * per
                    })
                    .sum();
                push(fp_occ / (ports.fp as f64).max(1.0));
            }
        }

        // Dependence chains serialise at full execution latency in both
        // models: the consumer's issue waits for the producer's complete.
        // A chained load's "execution latency" is the memory system's
        // cheapest completion path — every load pays at least the L1D hit
        // latency ([`MemoryHierarchy::access`] has no faster path), except
        // that an out-of-order core can forward from a pending store at
        // `stlf_latency`; kernels with no stores cannot hit that path.
        let load_hop = {
            let l1 = p.mem.l1d.latency as f64;
            match p.core.kind {
                CoreKind::InOrder => l1,
                CoreKind::OutOfOrder => {
                    if self.class_counts[InstClass::Store.index()].hi > 0.0 {
                        l1.min(p.core.ooo.stlf_latency.max(1) as f64)
                    } else {
                        l1
                    }
                }
            }
        };
        for ch in &self.chains {
            let hop = if ch.class == InstClass::Load {
                load_hop
            } else {
                lat.of(ch.class) as f64
            };
            push(ch.reps * hop / n.hi);
        }
        // Multi-register recurrence cycles: each full traversal costs the
        // cycle's summed completion latencies and advances `crossings`
        // iterations, so a loop spanning `span` iterations admits
        // `floor((span - 1) / crossings)` guaranteed traversals per
        // activation.
        for cy in &self.cycles {
            let w: f64 = cy
                .counts
                .iter()
                .map(|&(c, k)| {
                    let hop = if c == InstClass::Load {
                        load_hop
                    } else {
                        lat.of(c) as f64
                    };
                    hop * f64::from(k)
                })
                .sum();
            let traversals = ((cy.span - 1.0) / f64::from(cy.crossings)).floor();
            if traversals > 0.0 {
                push(cy.outer * traversals * w / n.hi);
            }
        }
        best
    }

    fn cpi_upper(&self, p: &Platform) -> f64 {
        let n = self.dyn_insts;
        let lat = &p.core.lat;
        let mem = &p.mem;
        let cnt = |c: InstClass| self.class_counts[c.index()].hi;
        let serial = |c: &CacheConfig| match c.tag_access {
            TagAccess::Serial => 2.0,
            TagAccess::Parallel => 0.0,
        };
        let tlb_pen = mem.tlb.map(|t| t.miss_penalty as f64).unwrap_or(0.0);
        let pages_fit = mem
            .tlb
            .map(|t| self.data_bytes.div_ceil(t.page_bytes as u64) <= t.entries as u64)
            .unwrap_or(true);
        let per_access_tlb = if pages_fit { 0.0 } else { tlb_pen };
        let line = mem.l1d.line_bytes.max(mem.l2.line_bytes) as f64;
        let transfer = (line / (mem.dram.bytes_per_cycle as f64).max(1.0)).ceil();
        let pf_degree = match mem.prefetcher {
            PrefetcherConfig::None => 0.0,
            PrefetcherConfig::NextLine => 1.0,
            PrefetcherConfig::Stride { degree, .. } => degree as f64,
            PrefetcherConfig::Ghb { degree, .. } => degree as f64,
        };
        let dram_chain = mem.l1d.latency as f64
            + serial(&mem.l1d)
            + mem.l2.latency as f64
            + serial(&mem.l2)
            + mem.dram.latency as f64
            + (1.0 + pf_degree) * transfer
            + CHAIN_SLOP;

        let stlf = match p.core.kind {
            CoreKind::InOrder => 0.0,
            CoreKind::OutOfOrder => (p.core.ooo.stlf_latency as f64).max(2.0),
        };
        let load_worst = per_access_tlb
            + match self.residency(mem) {
                MemResidency::L1Resident => {
                    (mem.l1d.latency as f64 + serial(&mem.l1d)).max(stlf) + 2.0
                }
                MemResidency::L2Resident => {
                    mem.l1d.latency as f64
                        + serial(&mem.l1d)
                        + mem.l2.latency as f64
                        + serial(&mem.l2)
                        + 4.0
                }
                MemResidency::DramBound => dram_chain,
            };
        // Stores drain through the full hierarchy whatever the residency
        // class (write-allocate may be off), and a full store buffer
        // passes that drain latency on to whoever issues next.
        let store_worst = 1.0 + tlb_pen + dram_chain;
        let branch_worst = 1.0
            + p.core.branch.mispredict_penalty as f64
            + p.core.branch.btb_miss_penalty as f64
            + p.core.frontend.depth as f64;
        let sb_cap = match p.core.kind {
            CoreKind::InOrder => p.core.inorder.store_buffer as f64,
            CoreKind::OutOfOrder => p.core.ooo.sq_entries as f64,
        };
        let barrier_worst = 1.0 + sb_cap * dram_chain;

        let mut cycles = 0.0f64;
        for c in InstClass::ALL {
            let k = cnt(c);
            if k == 0.0 {
                continue;
            }
            let worst = match c {
                InstClass::Load => load_worst,
                InstClass::Store => store_worst,
                InstClass::Barrier => barrier_worst,
                InstClass::Halt => 0.0,
                _ if c.is_branch() => branch_worst,
                _ => lat.of(c) as f64,
            };
            cycles += k * worst;
        }

        // Instruction fetch: cold-only when the code provably fits L1I in
        // every set; otherwise one worst-case refill per line visit
        // (sequential crossings plus every branch).
        let icache_chain = tlb_pen
            + mem.l1i.latency as f64
            + serial(&mem.l1i)
            + mem.l2.latency as f64
            + serial(&mem.l2)
            + mem.dram.latency as f64
            + transfer
            + CHAIN_SLOP;
        let code_lines = self.code_bytes.div_ceil(mem.l1i.line_bytes as u64) as f64;
        let insts_per_line = (mem.l1i.line_bytes as f64 / INST_BYTES as f64).max(1.0);
        let branches: f64 = InstClass::ALL
            .iter()
            .filter(|c| c.is_branch())
            .map(|&c| cnt(c))
            .sum();
        cycles += if code_lines <= mem.l1i.assoc as f64 {
            code_lines * icache_chain
        } else {
            (n.hi / insts_per_line + branches + code_lines) * icache_chain
        };

        // Amortised cold data misses and page walks (already per-access
        // for the DRAM-bound class; charged again here for simplicity —
        // it only loosens the bound).
        let data_lines = self.data_bytes.div_ceil(mem.l1d.line_bytes as u64) as f64;
        cycles += data_lines * dram_chain;
        if let Some(t) = mem.tlb {
            cycles += (self.data_bytes.div_ceil(t.page_bytes as u64) as f64) * tlb_pen;
        }
        cycles += p.core.frontend.depth as f64;

        cycles / n.lo
    }
}

/// Bounds summaries for a whole campaign suite, in instance order.
#[derive(Debug, Clone, Default)]
pub struct SuiteBounds {
    /// One summary per kernel.
    pub kernels: Vec<KernelBounds>,
}

impl SuiteBounds {
    /// Builds summaries for `(name, program)` pairs in order.
    pub fn build<'a, I>(programs: I, opts: &BoundsOptions) -> SuiteBounds
    where
        I: IntoIterator<Item = (&'a str, &'a Program)>,
    {
        SuiteBounds {
            kernels: programs
                .into_iter()
                .map(|(name, prog)| KernelBounds::build(name, prog, opts))
                .collect(),
        }
    }
}

/// Caps per-site RA602 diagnostics before the summary entry, mirroring
/// the RA401 convention.
const INVERSION_CAP: usize = 4;
/// Caps per-parameter RA603 diagnostics before the summary entry.
const INSENSITIVE_CAP: usize = 6;

/// Runs the RA6xx suite lints: RA601 (a kernel whose lower bound never
/// beats the trivial issue-width floor), RA602 (an inverted interval at
/// any probed configuration) and RA603 (a tuned parameter no kernel's
/// bounds can distinguish). `apply` maps a configuration onto a full
/// platform, exactly as the tuner will.
pub fn check_suite_bounds(
    bounds: &[KernelBounds],
    space: &ParamSpace,
    apply: &dyn Fn(&Configuration) -> Platform,
    out: &mut Vec<Diagnostic>,
) {
    let default_cfg = space.default_configuration();
    let base = apply(&default_cfg);
    let floor = KernelBounds::trivial_floor(&base);
    let at_default: Vec<Interval> = bounds.iter().map(|kb| kb.cpi_interval(&base)).collect();

    let mut inversions: Vec<(String, String)> = Vec::new();
    for (kb, iv) in bounds.iter().zip(&at_default) {
        if iv.is_inverted() {
            inversions.push((kb.name.clone(), "default".to_string()));
            continue;
        }
        if iv.lo <= floor * (1.0 + 1e-9) {
            out.push(
                Diagnostic::new(
                    Lint::BoundVacuous,
                    "static CPI lower bound never exceeds the trivial \
                     issue-width floor: the bounds engine cannot eliminate \
                     any configuration for this kernel",
                )
                .with("kernel", kb.name.clone())
                .with("lower_bound", format!("{:.4}", iv.lo))
                .with("floor", format!("{floor:.4}")),
            );
        }
    }

    // One-at-a-time sweep: vary each parameter across its domain with the
    // rest at defaults. A parameter is suite-insensitive when no kernel's
    // interval moves for any candidate value.
    let mut insensitive: Vec<String> = Vec::new();
    for (pi, param) in space.params().iter().enumerate() {
        let values: Vec<Value> = match &param.domain {
            Domain::Categorical(opts) => (0..opts.len() as u16).map(Value::Cat).collect(),
            Domain::Integer(vs) => (0..vs.len() as u16).map(Value::Int).collect(),
            Domain::Bool => vec![Value::Flag(false), Value::Flag(true)],
        };
        if values.len() < 2 {
            continue;
        }
        let mut sensitive = false;
        for v in values {
            let mut cfg = default_cfg.clone();
            cfg.set_value(pi, v);
            let plat = apply(&cfg);
            for (kb, default_iv) in bounds.iter().zip(&at_default) {
                let iv = kb.cpi_interval(&plat);
                if iv.is_inverted() {
                    inversions.push((kb.name.clone(), param.name.clone()));
                }
                if iv != *default_iv {
                    sensitive = true;
                }
            }
        }
        if !sensitive {
            insensitive.push(param.name.clone());
        }
    }

    inversions.sort();
    inversions.dedup();
    let shown = inversions.len().min(INVERSION_CAP);
    for (kernel, at) in &inversions[..shown] {
        out.push(
            Diagnostic::new(
                Lint::BoundInversion,
                "static CPI interval is inverted (lower bound exceeds upper \
                 bound): the bounds lattice is unsound for this kernel",
            )
            .with("kernel", kernel.clone())
            .with("varied", at.clone()),
        );
    }
    if inversions.len() > shown {
        out.push(
            Diagnostic::new(
                Lint::BoundInversion,
                "further inverted static CPI intervals (first sites listed \
                 individually above)",
            )
            .with("total_sites", inversions.len()),
        );
    }

    let shown = insensitive.len().min(INSENSITIVE_CAP);
    for name in &insensitive[..shown] {
        out.push(
            Diagnostic::new(
                Lint::BoundInsensitiveParameter,
                "no kernel's static CPI interval responds to this parameter: \
                 the bounds engine treats all its candidates alike",
            )
            .with("param", name.clone()),
        );
    }
    if insensitive.len() > shown {
        out.push(
            Diagnostic::new(
                Lint::BoundInsensitiveParameter,
                "further bounds-insensitive parameters (first listed \
                 individually above)",
            )
            .with("total_params", insensitive.len()),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use racesim_isa::asm::Asm;
    use racesim_isa::Reg;
    use racesim_kernels::emu::record_trace;
    use racesim_sim::Simulator;

    fn counted_fp_div_kernel(trips: u64) -> Program {
        let mut a = Asm::new();
        a.movz(Reg::x(28), trips as i64);
        let top = a.here();
        a.fdiv(Reg::v(0), Reg::v(0), Reg::v(1));
        a.subi(Reg::x(28), Reg::x(28), 1);
        a.cbnz(Reg::x(28), top);
        a.halt();
        a.finish()
    }

    #[test]
    fn counts_and_chains_are_trip_weighted() {
        let kb = KernelBounds::build(
            "fp-div-chain",
            &counted_fp_div_kernel(100),
            &BoundsOptions::default(),
        );
        // 1 setup + 3 × 100 loop body; Halt excluded.
        assert_eq!(kb.dyn_insts, Interval::point(301.0));
        assert_eq!(kb.class_count(InstClass::FpDiv), Interval::point(100.0));
        assert_eq!(kb.class_count(InstClass::Halt), Interval::zero());
        // Two chains: the fdiv accumulator and the subi counter.
        let mut classes: Vec<InstClass> = kb.chains.iter().map(|c| c.class).collect();
        classes.sort();
        assert_eq!(classes, vec![InstClass::IntAlu, InstClass::FpDiv]);
        for ch in &kb.chains {
            assert_eq!(ch.reps, 99.0);
        }
    }

    #[test]
    fn unknown_loops_fall_back_to_the_budget() {
        // Loop guarded by a comparison the idiom matcher cannot resolve:
        // decrements by a register, not an immediate.
        let mut a = Asm::new();
        a.movz(Reg::x(1), 7);
        a.movz(Reg::x(2), 1);
        let top = a.here();
        a.sub(Reg::x(1), Reg::x(1), Reg::x(2));
        a.cbnz(Reg::x(1), top);
        a.halt();
        let kb = KernelBounds::build("mystery", &a.finish(), &BoundsOptions { trip_budget: 64 });
        assert_eq!(kb.dyn_insts, Interval::new(2.0 + 2.0, 2.0 + 2.0 * 64.0));
    }

    #[test]
    fn chain_lower_bound_tracks_divider_latency() {
        let kb = KernelBounds::build(
            "fp-div-chain",
            &counted_fp_div_kernel(1000),
            &BoundsOptions::default(),
        );
        let mut p = Platform::a53_like();
        p.core.lat.fp_div = 20;
        let slow = kb.cpi_interval(&p);
        p.core.lat.fp_div = 40;
        let slower = kb.cpi_interval(&p);
        // The fdiv chain dominates: ~lat/3 CPI, monotone in the latency.
        assert!(slow.lo > 5.0, "chain bound too weak: {slow}");
        assert!(slower.lo > slow.lo * 1.8, "{slower} vs {slow}");
    }

    #[test]
    fn simulated_cpi_lands_inside_the_interval() {
        for trips in [4u64, 57, 300] {
            let prog = counted_fp_div_kernel(trips);
            let kb = KernelBounds::build("probe", &prog, &BoundsOptions::default());
            let trace = record_trace(&prog, 1 << 20).expect("kernel halts");
            for p in [Platform::a53_like(), Platform::a72_like()] {
                let stats = Simulator::new(p.clone()).run(&trace).expect("clean run");
                let iv = kb.cpi_interval(&p);
                assert!(
                    iv.contains(stats.cpi()),
                    "{}: cpi {} outside {iv} (trips {trips})",
                    p.name,
                    stats.cpi(),
                );
            }
        }
    }

    #[test]
    fn residency_tiers_follow_footprint_and_prefetcher() {
        let mut a = Asm::new();
        let buf = a.reserve_initialized(256, 64);
        a.mov64(Reg::x(1), buf);
        a.ldr8(Reg::x(2), Reg::x(1), 0);
        a.halt();
        let kb = KernelBounds::build("tiny-load", &a.finish(), &BoundsOptions::default());
        let mut mem = Platform::a53_like().mem;
        mem.prefetcher = PrefetcherConfig::None;
        assert_eq!(kb.residency(&mem), MemResidency::L1Resident);
        mem.prefetcher = PrefetcherConfig::NextLine;
        mem.prefetch_where = PrefetchWhere::L1;
        assert_ne!(kb.residency(&mem), MemResidency::L1Resident);
    }

    #[test]
    fn empty_program_yields_the_vacuous_interval() {
        let mut a = Asm::new();
        a.halt();
        let kb = KernelBounds::build("empty", &a.finish(), &BoundsOptions::default());
        assert_eq!(kb.dyn_insts, Interval::zero());
        let iv = kb.cpi_interval(&Platform::a53_like());
        assert_eq!(iv.lo, 0.0);
        assert!(iv.hi >= CPI_CAP * 0.99);
    }
}
