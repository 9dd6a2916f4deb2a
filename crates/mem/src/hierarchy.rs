//! The assembled memory hierarchy and its timing.

use crate::cache::{Cache, CacheStats, LookupOutcome};
use crate::config::{HierarchyConfig, PrefetchWhere, TagAccess};
use crate::dram::Dram;
use crate::prefetch::{self, Prefetcher};
use crate::tlb::{Tlb, TlbStats};
use racesim_telemetry::PhaseTimer;
use std::time::Instant;

/// Kind of memory request issued by a core model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MemOp {
    /// Instruction fetch (L1I side).
    IFetch,
    /// Data load.
    Load,
    /// Data store.
    Store,
}

/// The hierarchy level that serviced a request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Level {
    /// First-level cache (instruction or data).
    L1,
    /// Second-level cache.
    L2,
    /// Main memory.
    Mem,
}

impl std::fmt::Display for Level {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Level::L1 => "L1",
            Level::L2 => "L2",
            Level::Mem => "mem",
        })
    }
}

/// Timing outcome of one memory access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccessResult {
    /// Total load-to-use latency from the issue cycle, including port
    /// queueing, TLB walks and MSHR stalls.
    pub latency: u64,
    /// Deepest level that had to service the request.
    pub level: Level,
}

impl AccessResult {
    /// The cycle the data is available, given the issue cycle.
    pub fn ready_at(&self, issue_cycle: u64) -> u64 {
        issue_cycle + self.latency
    }
}

/// Aggregate statistics of the whole hierarchy.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct HierarchyStats {
    /// L1 instruction cache counters.
    pub l1i: CacheStats,
    /// L1 data cache counters.
    pub l1d: CacheStats,
    /// L2 counters.
    pub l2: CacheStats,
    /// Data-TLB counters (zeroed when no TLB is modelled).
    pub tlb: TlbStats,
    /// DRAM requests (demand + writeback + prefetch).
    pub dram_accesses: u64,
    /// Total DRAM queueing cycles.
    pub dram_queue_cycles: u64,
}

/// Simple port-count bandwidth regulator.
#[derive(Debug, Clone, Copy)]
struct PortRegulator {
    ports: u32,
    cycle: u64,
    used: u32,
}

impl PortRegulator {
    fn new(ports: u32) -> PortRegulator {
        PortRegulator {
            ports: ports.max(1),
            cycle: 0,
            used: 0,
        }
    }

    /// Admits a request wanting to start at `at`; returns the actual start
    /// cycle (>= `at`).
    fn admit(&mut self, at: u64) -> u64 {
        if at > self.cycle {
            self.cycle = at;
            self.used = 1;
            return at;
        }
        // Request arrives at or before the regulator's current cycle: it
        // contends with whatever is already scheduled there.
        if self.used < self.ports {
            self.used += 1;
            self.cycle
        } else {
            self.cycle += 1;
            self.used = 1;
            self.cycle
        }
    }
}

/// Miss-status holding registers: bounds outstanding misses.
#[derive(Debug, Clone)]
struct MshrFile {
    completions: Vec<u64>,
    cap: usize,
}

impl MshrFile {
    fn new(cap: u32) -> MshrFile {
        MshrFile {
            completions: Vec::new(),
            cap: cap.max(1) as usize,
        }
    }

    /// Acquires an entry for a miss issued at `at` completing at
    /// `completion`; returns the stall (cycles the request must wait for a
    /// free entry).
    fn acquire(&mut self, at: u64, completion: u64) -> u64 {
        self.completions.retain(|&c| c > at);
        if self.completions.len() < self.cap {
            self.completions.push(completion);
            return 0;
        }
        let (idx, &earliest) = self
            .completions
            .iter()
            .enumerate()
            .min_by_key(|(_, c)| **c)
            .expect("full MSHR file is non-empty");
        self.completions.swap_remove(idx);
        let stall = earliest - at;
        self.completions.push(completion + stall);
        stall
    }
}

/// The full memory hierarchy: split L1I/L1D, unified L2, DRAM, optional
/// data TLB and optional prefetcher.
///
/// Core models call [`MemoryHierarchy::access`] once per instruction fetch
/// line and once per data memory operation, passing the cycle at which the
/// request would issue; the result carries the full load-to-use latency
/// with all queueing included.
#[derive(Debug)]
pub struct MemoryHierarchy {
    l1i: Cache,
    l1d: Cache,
    l2: Cache,
    dram: Dram,
    tlb: Option<Tlb>,
    prefetcher: Option<Box<dyn Prefetcher>>,
    prefetch_where: PrefetchWhere,
    prefetch_on_prefetch_hit: bool,

    l1i_shift: u32,
    l1d_shift: u32,
    l2_shift: u32,
    l1i_lat: u64,
    l1d_lat: u64,
    l2_lat: u64,
    l1i_serial: u64,
    l1d_serial: u64,
    l2_serial: u64,
    l1d_write_allocate: bool,

    l1i_ports: PortRegulator,
    l1d_ports: PortRegulator,
    l2_ports: PortRegulator,
    l1d_mshrs: MshrFile,
    l2_mshrs: MshrFile,

    scratch_prefetch: Vec<u64>,
    prof: MemProf,
}

/// Pre-resolved self-profiler phases for the access paths. `on` keeps
/// the unprofiled hot path to a single branch; all timers are dead
/// no-ops until [`MemoryHierarchy::attach_profiler`] is called with an
/// enabled profiler.
#[derive(Debug, Default, Clone)]
struct MemProf {
    on: bool,
    l1: PhaseTimer,
    l2: PhaseTimer,
    dram: PhaseTimer,
    tlb: PhaseTimer,
}

impl MemoryHierarchy {
    /// Builds the hierarchy from its configuration.
    ///
    /// # Panics
    ///
    /// Panics on inconsistent cache geometry (see
    /// [`CacheConfig::num_sets`](crate::CacheConfig::num_sets)).
    pub fn new(cfg: &HierarchyConfig) -> MemoryHierarchy {
        let serial = |t: TagAccess| match t {
            TagAccess::Parallel => 0,
            TagAccess::Serial => 1,
        };
        MemoryHierarchy {
            l1i: Cache::new(&cfg.l1i),
            l1d: Cache::new(&cfg.l1d),
            l2: Cache::new(&cfg.l2),
            dram: Dram::new(&cfg.dram, cfg.l2.line_bytes),
            tlb: cfg.tlb.as_ref().map(Tlb::new),
            prefetcher: prefetch::build(cfg.prefetcher),
            prefetch_where: cfg.prefetch_where,
            prefetch_on_prefetch_hit: cfg.prefetch_on_prefetch_hit,
            l1i_shift: cfg.l1i.line_bytes.trailing_zeros(),
            l1d_shift: cfg.l1d.line_bytes.trailing_zeros(),
            l2_shift: cfg.l2.line_bytes.trailing_zeros(),
            l1i_lat: cfg.l1i.latency,
            l1d_lat: cfg.l1d.latency,
            l2_lat: cfg.l2.latency,
            l1i_serial: serial(cfg.l1i.tag_access),
            l1d_serial: serial(cfg.l1d.tag_access),
            l2_serial: serial(cfg.l2.tag_access),
            l1d_write_allocate: cfg.l1d.write_allocate,
            l1i_ports: PortRegulator::new(cfg.l1i.ports),
            l1d_ports: PortRegulator::new(cfg.l1d.ports),
            l2_ports: PortRegulator::new(cfg.l2.ports),
            l1d_mshrs: MshrFile::new(cfg.l1d.mshrs),
            l2_mshrs: MshrFile::new(cfg.l2.mshrs),
            scratch_prefetch: Vec::with_capacity(prefetch::MAX_DEGREE),
            prof: MemProf::default(),
        }
    }

    /// Attaches the self-profiler. Subsequent accesses attribute their
    /// wall time and simulated latency cycles to `parent`'s `l1` / `l2`
    /// / `dram` children — keyed by the level that serviced the request
    /// — and TLB walk cycles to a `tlb` child. With a disabled `parent`
    /// this stays a no-op and the hot path keeps its single branch.
    pub fn attach_profiler(&mut self, parent: &PhaseTimer) {
        self.prof = MemProf {
            on: parent.is_enabled(),
            l1: parent.child("l1"),
            l2: parent.child("l2"),
            dram: parent.child("dram"),
            tlb: parent.child("tlb"),
        };
    }

    /// The line size of the L1 instruction cache, in bytes.
    pub fn l1i_line_bytes(&self) -> u64 {
        1 << self.l1i_shift
    }

    /// The L1I hit latency (including serial tag access), in cycles.
    ///
    /// Core models use this to separate the pipelined fetch-hit cost from
    /// genuine miss stalls.
    pub fn l1i_hit_latency(&self) -> u64 {
        self.l1i_lat + self.l1i_serial
    }

    /// Silently installs the code line containing `addr` into L1I and L2.
    ///
    /// No statistics or bandwidth are charged; use before timing starts to
    /// model an already-warm instruction footprint.
    pub fn prefill_code(&mut self, addr: u64) {
        self.l1i.prefill(addr >> self.l1i_shift);
        self.l2.prefill(addr >> self.l2_shift);
    }

    /// Silently installs the data line containing `addr` into L1D and L2.
    pub fn prefill_data(&mut self, addr: u64) {
        self.l1d.prefill(addr >> self.l1d_shift);
        self.l2.prefill(addr >> self.l2_shift);
    }

    /// Silently installs the data line containing `addr` into the L2 only
    /// (models lines left warm by kernel page zeroing, which fit the L2
    /// but not the L1).
    pub fn prefill_data_l2(&mut self, addr: u64) {
        self.l2.prefill(addr >> self.l2_shift);
    }

    /// Services an L2 (and possibly DRAM) fill for `addr` starting at
    /// `at`; returns the completion cycle.
    fn l2_fill(&mut self, addr: u64, at: u64) -> (u64, Level) {
        let block = addr >> self.l2_shift;
        let start = self.l2_ports.admit(at);
        match self.l2.access(block, false, true) {
            LookupOutcome::Hit { .. } => (start + self.l2_lat + self.l2_serial, Level::L2),
            LookupOutcome::VictimHit => (start + self.l2_lat + self.l2_serial + 2, Level::L2),
            LookupOutcome::Miss { writeback } => {
                let tag_time = start + self.l2_lat;
                let stall = self
                    .l2_mshrs
                    .acquire(tag_time, tag_time + self.dram.latency());
                let done = self.dram.access(tag_time + stall);
                if writeback.is_some() {
                    // Dirty L2 eviction: consumes DRAM bandwidth only.
                    self.dram.access(done);
                }
                (done, Level::Mem)
            }
        }
    }

    /// Charges an L1D dirty writeback to the L2 (bandwidth only).
    fn l1_writeback(&mut self, block_l1: u64, at: u64) {
        let addr = block_l1 << self.l1d_shift;
        let l2_block = addr >> self.l2_shift;
        let start = self.l2_ports.admit(at);
        if let LookupOutcome::Miss { writeback } = self.l2.access(l2_block, true, true) {
            let done = self.dram.access(start + self.l2_lat);
            if writeback.is_some() {
                self.dram.access(done);
            }
        }
    }

    fn run_prefetcher(&mut self, pc: u64, addr: u64, outcome: &LookupOutcome, at: u64) {
        let Some(pf) = self.prefetcher.as_mut() else {
            return;
        };
        let (shift, in_l1) = match self.prefetch_where {
            PrefetchWhere::L1 => (self.l1d_shift, true),
            PrefetchWhere::L2 => (self.l2_shift, false),
        };
        let block = addr >> shift;
        let hit = match outcome {
            LookupOutcome::Hit { was_prefetched } => {
                !(*was_prefetched && self.prefetch_on_prefetch_hit)
            }
            LookupOutcome::VictimHit => true,
            LookupOutcome::Miss { .. } => false,
        };
        self.scratch_prefetch.clear();
        pf.observe(pc, block, hit, &mut self.scratch_prefetch);
        let preds = std::mem::take(&mut self.scratch_prefetch);
        for &p in &preds {
            if in_l1 {
                // Fill L1D from L2: consumes an L2 port slot.
                let wb = self.l1d.fill_prefetch(p);
                let t = self.l2_ports.admit(at);
                let addr_p = p << self.l1d_shift;
                let l2_block = addr_p >> self.l2_shift;
                if let LookupOutcome::Miss { .. } = self.l2.access(l2_block, false, true) {
                    self.dram.access(t + self.l2_lat);
                }
                if let Some(dirty) = wb {
                    self.l1_writeback(dirty, at);
                }
            } else {
                // Fill L2 from DRAM.
                if self.l2.fill_prefetch(p).is_some() || !self.l2.contains(p) {
                    // Either we evicted something dirty or freshly filled:
                    // both consume a DRAM transfer.
                }
                self.dram.access(at);
            }
        }
        self.scratch_prefetch = preds;
    }

    /// Performs one memory access.
    ///
    /// * `op` — fetch, load or store;
    /// * `addr` — virtual byte address;
    /// * `pc` — program counter of the instruction (prefetcher training);
    /// * `cycle` — cycle at which the request issues.
    pub fn access(&mut self, op: MemOp, addr: u64, pc: u64, cycle: u64) -> AccessResult {
        if !self.prof.on {
            return self.access_inner(op, addr, pc, cycle);
        }
        let t0 = Instant::now();
        let result = self.access_inner(op, addr, pc, cycle);
        let ns = t0.elapsed().as_nanos() as u64;
        let timer = match result.level {
            Level::L1 => &self.prof.l1,
            Level::L2 => &self.prof.l2,
            Level::Mem => &self.prof.dram,
        };
        timer.add(1, ns);
        timer.add_cycles(result.latency);
        result
    }

    fn access_inner(&mut self, op: MemOp, addr: u64, pc: u64, cycle: u64) -> AccessResult {
        match op {
            MemOp::IFetch => {
                let block = addr >> self.l1i_shift;
                let start = self.l1i_ports.admit(cycle);
                let queued = start - cycle;
                match self.l1i.access(block, false, true) {
                    LookupOutcome::Hit { .. } => AccessResult {
                        latency: queued + self.l1i_lat + self.l1i_serial,
                        level: Level::L1,
                    },
                    LookupOutcome::VictimHit => AccessResult {
                        latency: queued + self.l1i_lat + self.l1i_serial + 2,
                        level: Level::L1,
                    },
                    LookupOutcome::Miss { .. } => {
                        // Instruction lines are never dirty; no writeback.
                        let (done, level) = self.l2_fill(addr, start + self.l1i_lat);
                        AccessResult {
                            latency: done - cycle,
                            level,
                        }
                    }
                }
            }
            MemOp::Load | MemOp::Store => {
                let is_store = op == MemOp::Store;
                let mut extra = 0;
                if let Some(tlb) = self.tlb.as_mut() {
                    extra += tlb.translate(addr);
                }
                if extra > 0 {
                    // A TLB walk happened; count it and its cycles (the
                    // wall time stays inside the overall access).
                    self.prof.tlb.add(1, 0);
                    self.prof.tlb.add_cycles(extra);
                }
                let block = addr >> self.l1d_shift;
                let start = self.l1d_ports.admit(cycle + extra);
                let allocate = !is_store || self.l1d_write_allocate;
                let outcome = self.l1d.access(block, is_store, allocate);
                let result = match outcome {
                    LookupOutcome::Hit { .. } => AccessResult {
                        latency: (start - cycle) + self.l1d_lat + self.l1d_serial,
                        level: Level::L1,
                    },
                    LookupOutcome::VictimHit => AccessResult {
                        latency: (start - cycle) + self.l1d_lat + self.l1d_serial + 2,
                        level: Level::L1,
                    },
                    LookupOutcome::Miss { writeback } => {
                        let tag_time = start + self.l1d_lat;
                        if let Some(dirty) = writeback {
                            self.l1_writeback(dirty, tag_time);
                        }
                        if is_store && !self.l1d_write_allocate {
                            // Write-through for this line: pay L2 bandwidth,
                            // but the store completes quickly locally.
                            let t = self.l2_ports.admit(tag_time);
                            let l2_block = addr >> self.l2_shift;
                            if let LookupOutcome::Miss { .. } = self.l2.access(l2_block, true, true)
                            {
                                self.dram.access(t + self.l2_lat);
                            }
                            AccessResult {
                                latency: (start - cycle) + self.l1d_lat,
                                level: Level::L2,
                            }
                        } else {
                            let stall =
                                self.l1d_mshrs.acquire(tag_time, tag_time + self.l2_lat + 1);
                            let (done, level) = self.l2_fill(addr, tag_time + stall);
                            AccessResult {
                                latency: done - cycle,
                                level,
                            }
                        }
                    }
                };
                if self.prefetch_where == PrefetchWhere::L1 {
                    self.run_prefetcher(pc, addr, &outcome, start);
                } else if !outcome.is_hit() {
                    // Train the L2 prefetcher on L1 misses (the L2 demand
                    // stream).
                    let l2_outcome = if result.level == Level::Mem {
                        LookupOutcome::Miss { writeback: None }
                    } else {
                        LookupOutcome::Hit {
                            was_prefetched: false,
                        }
                    };
                    self.run_prefetcher(pc, addr, &l2_outcome, start);
                }
                result
            }
        }
    }

    /// Statistics accumulated since construction or the last reset.
    pub fn stats(&self) -> HierarchyStats {
        HierarchyStats {
            l1i: self.l1i.stats(),
            l1d: self.l1d.stats(),
            l2: self.l2.stats(),
            tlb: self.tlb.as_ref().map(|t| t.stats()).unwrap_or_default(),
            dram_accesses: self.dram.accesses(),
            dram_queue_cycles: self.dram.queue_cycles(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{CacheConfig, DramConfig, PrefetcherConfig, TlbConfig};

    fn small_cfg() -> HierarchyConfig {
        HierarchyConfig {
            l1i: CacheConfig {
                size_kb: 1,
                assoc: 2,
                latency: 1,
                ..CacheConfig::l1_default()
            },
            l1d: CacheConfig {
                size_kb: 1,
                assoc: 2,
                latency: 2,
                mshrs: 2,
                ..CacheConfig::l1_default()
            },
            l2: CacheConfig {
                size_kb: 8,
                assoc: 4,
                latency: 10,
                ..CacheConfig::l2_default()
            },
            dram: DramConfig {
                latency: 100,
                bytes_per_cycle: 8,
            },
            tlb: None,
            prefetcher: PrefetcherConfig::None,
            prefetch_where: PrefetchWhere::L1,
            prefetch_on_prefetch_hit: false,
        }
    }

    #[test]
    fn latency_ladder_l1_l2_mem() {
        let mut m = MemoryHierarchy::new(&small_cfg());
        let cold = m.access(MemOp::Load, 0x4000, 0, 0);
        assert_eq!(cold.level, Level::Mem);
        // l1 tag (2) + l2 tag (10) + dram 100 = 112 plus serial L2 handled
        // inside l2_fill; exact value checked loosely:
        assert!(cold.latency >= 112, "got {}", cold.latency);

        let warm = m.access(MemOp::Load, 0x4000, 0, 200);
        assert_eq!(warm.level, Level::L1);
        assert_eq!(warm.latency, 2);

        // Evict from tiny L1D (1KiB/2way/64B = 8 sets): stride 512B maps
        // every line to L1 set 0, while spreading across four L2 sets so
        // 0x4000 survives in L2.
        for i in 1..=8u64 {
            m.access(MemOp::Load, 0x4000 + i * 512, 0, 1000 + i * 300);
        }
        let l2hit = m.access(MemOp::Load, 0x4000, 0, 20_000);
        assert_eq!(l2hit.level, Level::L2, "L1 evicted but L2 retains");
        assert!(l2hit.latency > warm.latency && l2hit.latency < cold.latency);
    }

    #[test]
    fn ifetch_uses_the_instruction_cache() {
        let mut m = MemoryHierarchy::new(&small_cfg());
        let a = m.access(MemOp::IFetch, 0x1000, 0, 0);
        assert_eq!(a.level, Level::Mem);
        let b = m.access(MemOp::IFetch, 0x1000, 0, 500);
        assert_eq!(b.level, Level::L1);
        assert_eq!(b.latency, 1);
        let s = m.stats();
        assert_eq!(s.l1i.accesses, 2);
        assert_eq!(s.l1d.accesses, 0);
    }

    #[test]
    fn stores_mark_lines_dirty_and_cause_writebacks() {
        let mut m = MemoryHierarchy::new(&small_cfg());
        m.access(MemOp::Store, 0x4000, 0, 0);
        // Conflict the set until 0x4000's line is evicted (8 sets, so
        // stride 8*64=512 maps to the same set).
        for i in 1..=4u64 {
            m.access(MemOp::Load, 0x4000 + i * 512, 0, i * 400);
        }
        assert!(m.stats().l1d.writebacks >= 1);
    }

    #[test]
    fn tlb_adds_walk_latency() {
        let mut cfg = small_cfg();
        cfg.tlb = Some(TlbConfig {
            entries: 4,
            page_bytes: 4096,
            miss_penalty: 25,
        });
        let mut with_tlb = MemoryHierarchy::new(&cfg);
        let mut without = MemoryHierarchy::new(&small_cfg());
        let a = with_tlb.access(MemOp::Load, 0x4000, 0, 0);
        let b = without.access(MemOp::Load, 0x4000, 0, 0);
        assert_eq!(a.latency, b.latency + 25);
        assert_eq!(with_tlb.stats().tlb.misses, 1);
    }

    #[test]
    fn port_contention_queues_same_cycle_accesses() {
        let mut m = MemoryHierarchy::new(&small_cfg()); // 1 port
        m.access(MemOp::Load, 0x4000, 0, 0);
        m.access(MemOp::Load, 0x4040, 0, 500); // warm both lines
        m.access(MemOp::Load, 0x4000, 0, 501);
        let t1 = m.access(MemOp::Load, 0x4000, 0, 1000);
        let t2 = m.access(MemOp::Load, 0x4040, 0, 1000);
        assert_eq!(t1.latency, 2);
        assert_eq!(t2.latency, 3, "second same-cycle access waits one cycle");
    }

    #[test]
    fn stride_prefetcher_converts_misses_to_prefetch_hits() {
        let mut cfg = small_cfg();
        cfg.prefetcher = PrefetcherConfig::Stride {
            table_entries: 16,
            degree: 2,
        };
        let mut with_pf = MemoryHierarchy::new(&cfg);
        let mut without = MemoryHierarchy::new(&small_cfg());
        let pc = 0x100;
        let mut miss_pf = 0;
        let mut miss_plain = 0;
        for i in 0..64u64 {
            let addr = 0x10_0000 + i * 64;
            let t = 2000 * i;
            if with_pf.access(MemOp::Load, addr, pc, t).level != Level::L1 {
                miss_pf += 1;
            }
            if without.access(MemOp::Load, addr, pc, t).level != Level::L1 {
                miss_plain += 1;
            }
        }
        assert!(
            miss_pf < miss_plain / 2,
            "prefetcher should hide most stream misses: {miss_pf} vs {miss_plain}"
        );
        assert!(with_pf.stats().l1d.useful_prefetches > 10);
    }

    #[test]
    fn mshr_pressure_stalls_bursts() {
        // 2 MSHRs; issue 6 misses in the same cycle: later ones stall.
        let mut m = MemoryHierarchy::new(&small_cfg());
        let base = 0x20_0000;
        let lat: Vec<u64> = (0..6u64)
            .map(|i| m.access(MemOp::Load, base + i * 4096, 0, 0).latency)
            .collect();
        assert!(
            lat[5] > lat[0],
            "limited MSHRs must delay the burst tail: {lat:?}"
        );
    }

    #[test]
    fn write_no_allocate_bypasses_l1_fill() {
        let mut cfg = small_cfg();
        cfg.l1d.write_allocate = false;
        let mut m = MemoryHierarchy::new(&cfg);
        m.access(MemOp::Store, 0x4000, 0, 0);
        // The line must not be in L1D: a subsequent load misses to L2.
        let r = m.access(MemOp::Load, 0x4000, 0, 1000);
        assert_eq!(r.level, Level::L2);
    }
}
