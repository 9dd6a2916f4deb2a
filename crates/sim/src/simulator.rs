//! Trace replay through a timing model.

use crate::platform::Platform;
use racesim_decoder::{DecodeError, Decoder};
use racesim_isa::{DynInst, StaticInst};
use racesim_mem::{HierarchyStats, MemoryHierarchy};
use racesim_telemetry::{Counter, Histogram, PhaseTimer, Profiler, Telemetry};
use racesim_trace::{CompactTrace, TraceBuffer, TraceRecord};
use racesim_uarch::{CoreConfig, CoreKind, CoreModel, CoreStats, InOrderCore, OooCore};
use std::fmt;
use std::time::Instant;

/// Errors from a simulation run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// An instruction word in the trace failed to decode.
    Decode {
        /// Program counter of the word's first occurrence in the trace.
        pc: u64,
        /// The decoder's error.
        source: DecodeError,
    },
    /// A record cannot be replayed: it carries both an effective address
    /// and a branch target, or the trace exceeds the compact form's
    /// distinct-word limit.
    Trace(String),
}

impl From<std::io::Error> for SimError {
    fn from(e: std::io::Error) -> SimError {
        SimError::Trace(e.to_string())
    }
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::Decode { pc, source } => {
                write!(f, "decode failure at pc {pc:#x}: {source}")
            }
            SimError::Trace(reason) => write!(f, "malformed trace: {reason}"),
        }
    }
}

impl std::error::Error for SimError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SimError::Decode { source, .. } => Some(source),
            SimError::Trace(_) => None,
        }
    }
}

/// Per-run options.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SimOptions {
    /// Pre-install every code line touched by the trace (warm I-cache).
    pub prefill_code: bool,
    /// Pre-install every data line touched by the trace (warm D-side) —
    /// the "initializing the arrays prior to simulation" remedy from the
    /// paper's Section IV-B.
    pub prefill_data: bool,
    /// Pre-install touched data lines into the L2 only (kernel
    /// zero-fill-on-first-touch warmth; used by the reference hardware).
    pub prefill_data_l2: bool,
}

/// Statistics from one simulation run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimStats {
    /// Core-side counters (instructions, cycles, branches).
    pub core: CoreStats,
    /// Memory-side counters.
    pub mem: HierarchyStats,
}

impl SimStats {
    /// Cycles per instruction.
    pub fn cpi(&self) -> f64 {
        self.core.cpi()
    }

    /// Instructions per cycle.
    pub fn ipc(&self) -> f64 {
        self.core.ipc()
    }
}

fn build_core(cfg: &CoreConfig) -> Box<dyn CoreModel> {
    match cfg.kind {
        CoreKind::InOrder => Box::new(InOrderCore::new(cfg)),
        CoreKind::OutOfOrder => Box::new(OooCore::new(cfg)),
    }
}

/// The trace-driven simulator.
///
/// A `Simulator` owns a platform description and a decoder; each call to
/// [`Simulator::run`] builds fresh core and memory state, so one simulator
/// can be reused (and shared across threads) for many runs.
#[derive(Debug, Clone)]
pub struct Simulator {
    platform: Platform,
    decoder: Decoder,
    options: SimOptions,
    metrics: SimMetrics,
    prof: SimProf,
}

/// Self-profiler phases resolved once at attach time. The phase tree a
/// profiled run produces:
///
/// ```text
/// simulate
///   prefill          cache warming passes
///   fetch            compact trace → DynInst conversion
///     decode         one decoder call per distinct word, once per run
///   execute          core model + memory hierarchy
///     mem            l1 / l2 / dram / tlb (wall + latency cycles)
///     core           per-cause stall cycles from the core model
/// ```
///
/// Profiled and unprofiled runs share one replay loop; only the clock
/// reads and the core's phase accounting depend on [`SimProf::on`].
#[derive(Debug, Clone, Default)]
struct SimProf {
    profiler: Profiler,
    simulate: PhaseTimer,
    prefill: PhaseTimer,
    fetch: PhaseTimer,
    decode: PhaseTimer,
    execute: PhaseTimer,
    mem: PhaseTimer,
    core: PhaseTimer,
}

impl SimProf {
    fn new(profiler: Profiler) -> SimProf {
        let simulate = profiler.timer("simulate");
        let prefill = simulate.child("prefill");
        let fetch = simulate.child("fetch");
        let decode = fetch.child("decode");
        let execute = simulate.child("execute");
        let mem = execute.child("mem");
        let core = execute.child("core");
        SimProf {
            profiler,
            simulate,
            prefill,
            fetch,
            decode,
            execute,
            mem,
            core,
        }
    }

    fn on(&self) -> bool {
        self.profiler.is_enabled()
    }
}

/// Records expanded per replay chunk. When profiling, two clock reads
/// per chunk keep the timing overhead amortised to well under a
/// nanosecond per instruction.
const REPLAY_CHUNK: usize = 2048;

/// Telemetry handles resolved once at attach time, so each run pays only
/// the atomic updates (or nothing, when telemetry is disabled).
#[derive(Debug, Clone, Default)]
struct SimMetrics {
    telemetry: Telemetry,
    runs: Counter,
    instructions: Counter,
    cycles: Counter,
    run_us: Histogram,
    /// Simulation throughput per evaluation, in simulated instructions
    /// per wall-clock millisecond.
    inst_per_ms: Histogram,
}

impl SimMetrics {
    fn new(telemetry: Telemetry) -> SimMetrics {
        SimMetrics {
            runs: telemetry.counter("sim.runs"),
            instructions: telemetry.counter("sim.instructions"),
            cycles: telemetry.counter("sim.cycles"),
            run_us: telemetry.histogram("sim.run_us"),
            inst_per_ms: telemetry.histogram("sim.inst_per_ms"),
            telemetry,
        }
    }
}

impl Simulator {
    /// Creates a simulator with a bug-free decoder and default options.
    pub fn new(platform: Platform) -> Simulator {
        Simulator {
            platform,
            decoder: Decoder::new(),
            options: SimOptions::default(),
            metrics: SimMetrics::default(),
            prof: SimProf::default(),
        }
    }

    /// Creates a simulator with an explicit decoder (e.g. the quirky
    /// "Capstone-like" one) and options.
    pub fn with_decoder(platform: Platform, decoder: Decoder, options: SimOptions) -> Simulator {
        Simulator {
            platform,
            decoder,
            options,
            metrics: SimMetrics::default(),
            prof: SimProf::default(),
        }
    }

    /// Attaches a telemetry handle: every run records instruction/cycle
    /// counts, wall time, and throughput. Costs nothing when `telemetry`
    /// is disabled.
    pub fn with_telemetry(mut self, telemetry: Telemetry) -> Simulator {
        self.metrics = SimMetrics::new(telemetry);
        self
    }

    /// Attaches a self-profiler: runs time each replay chunk and
    /// attribute wall time to `simulate` → `fetch` / `decode` / `execute`
    /// / `mem` phases, and feed the core model's stall-cycle attribution
    /// into a `core` sub-tree. With a disabled `profiler` the same loop
    /// runs without reading the clock.
    pub fn with_profiler(mut self, profiler: Profiler) -> Simulator {
        self.prof = if profiler.is_enabled() {
            SimProf::new(profiler)
        } else {
            SimProf::default()
        };
        self
    }

    /// The platform being simulated.
    pub fn platform(&self) -> &Platform {
        &self.platform
    }

    /// Replays a record buffer through the timing model; compacts it and
    /// calls [`Simulator::run_compact`].
    ///
    /// # Errors
    ///
    /// See [`Simulator::run_records`].
    pub fn run(&self, trace: &TraceBuffer) -> Result<SimStats, SimError> {
        self.run_records(trace.records())
    }

    /// Replays a record slice through the timing model; compacts it and
    /// calls [`Simulator::run_compact`].
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Trace`] for a record a [`CompactTrace`]
    /// rejects, and [`SimError::Decode`] if the trace contains an
    /// undecodable word.
    pub fn run_records(&self, records: &[TraceRecord]) -> Result<SimStats, SimError> {
        self.run_compact(&CompactTrace::from_records(records)?)
    }

    /// Replays a compact trace through the timing model: the one replay
    /// loop every simulation runs.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Decode`] if the trace contains an undecodable
    /// word, at the pc of that word's first occurrence.
    pub fn run_compact(&self, trace: &CompactTrace) -> Result<SimStats, SimError> {
        let sw = self.metrics.telemetry.stopwatch();
        let profiled = self.prof.on();
        let t_run = profiled.then(Instant::now);
        let mut core = build_core(&self.platform.core);
        let mut mem = MemoryHierarchy::new(&self.platform.mem);
        if profiled {
            core.set_phase_accounting(true);
            mem.attach_profiler(&self.prof.mem);
        }

        if self.options.prefill_code || self.options.prefill_data || self.options.prefill_data_l2 {
            self.prof.prefill.time(|| {
                for r in trace {
                    if self.options.prefill_code {
                        mem.prefill_code(r.pc());
                    }
                    if let Some(ea) = r.ea() {
                        if self.options.prefill_data {
                            mem.prefill_data(ea);
                        } else if self.options.prefill_data_l2 {
                            mem.prefill_data_l2(ea);
                        }
                    }
                }
            });
        }

        self.replay(core.as_mut(), &mut mem, trace)?;
        let stats = SimStats {
            core: core.stats(),
            mem: mem.stats(),
        };
        if let Some(t0) = t_run {
            self.prof.simulate.record_ns(t0.elapsed().as_nanos() as u64);
            self.prof.simulate.add_insts(stats.core.instructions);
            self.prof.simulate.add_cycles(stats.core.cycles);
            for (phase, cycles) in core.phase_cycles() {
                self.prof.core.child(phase).add_cycles(cycles);
            }
        }
        if self.metrics.telemetry.is_enabled() {
            let us = sw.elapsed_us();
            self.metrics.runs.inc();
            self.metrics.instructions.add(stats.core.instructions);
            self.metrics.cycles.add(stats.core.cycles);
            self.metrics.run_us.record(us);
            self.metrics
                .inst_per_ms
                .record(stats.core.instructions * 1000 / us.max(1));
        }
        Ok(stats)
    }

    /// Decodes a trace's word table, once per run. The table is in
    /// first-occurrence order, so the first word that fails is the one a
    /// record-by-record decode would have failed on, reported at the pc
    /// of its first use.
    fn decode_table(&self, trace: &CompactTrace) -> Result<Vec<StaticInst>, SimError> {
        trace
            .words()
            .iter()
            .zip(trace.first_pcs())
            .map(|(&word, &pc)| {
                self.prof
                    .decode
                    .time(|| self.decoder.decode(word))
                    .map_err(|source| SimError::Decode { pc, source })
            })
            .collect()
    }

    /// The replay loop. The word table is decoded first (fetch/decode);
    /// then each [`REPLAY_CHUNK`]-record chunk is expanded into a reused
    /// `DynInst` buffer by indexing the table (fetch), then consumed by
    /// the core (execute). The per-record consume order, and so every
    /// counter, is the same as a record-at-a-time walk. The clock is read
    /// only when a profiler is attached, twice per chunk.
    fn replay(
        &self,
        core: &mut dyn CoreModel,
        mem: &mut MemoryHierarchy,
        trace: &CompactTrace,
    ) -> Result<(), SimError> {
        let profiled = self.prof.on();
        let clock = || profiled.then(Instant::now);
        let t0 = clock();
        let table = self.decode_table(trace)?;
        lap(&self.prof.fetch, 0, t0);
        let mut records = trace.iter();
        let mut dyn_insts: Vec<DynInst> = Vec::with_capacity(REPLAY_CHUNK.min(trace.len()));
        loop {
            let t0 = clock();
            dyn_insts.clear();
            dyn_insts.extend(records.by_ref().take(REPLAY_CHUNK).map(|r| DynInst {
                pc: r.pc(),
                stat: table[r.word_id()],
                ea: r.ea().unwrap_or(0),
                taken: r.taken(),
                target: r.target().unwrap_or(0),
            }));
            if dyn_insts.is_empty() {
                break;
            }
            lap(&self.prof.fetch, dyn_insts.len(), t0);
            let t1 = clock();
            for dyn_inst in &dyn_insts {
                core.consume(dyn_inst, mem);
            }
            lap(&self.prof.execute, dyn_insts.len(), t1);
        }
        let t2 = clock();
        core.finish(mem);
        lap(&self.prof.execute, 0, t2);
        Ok(())
    }
}

/// Records `count` invocations into `timer` lasting since `start`, when
/// the clock was read at all.
#[inline]
fn lap(timer: &PhaseTimer, count: usize, start: Option<Instant>) {
    if let Some(t) = start {
        timer.add(count as u64, t.elapsed().as_nanos() as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use racesim_isa::{asm::Asm, Reg};
    use racesim_trace::TraceRecord;

    fn loop_trace(iters: usize) -> TraceBuffer {
        // A 3-instruction loop body re-executed `iters` times at fixed pcs.
        let mut a = Asm::new();
        a.addi(Reg::x(1), Reg::x(1), 1);
        a.ldr8(Reg::x(2), Reg::x(3), 0);
        let l = a.here();
        a.b(l);
        let p = a.finish();
        let mut t = TraceBuffer::new();
        for _ in 0..iters {
            racesim_trace::TraceSink::push(&mut t, TraceRecord::plain(p.pc_of(0), p.code[0]))
                .unwrap();
            racesim_trace::TraceSink::push(
                &mut t,
                TraceRecord::memory(p.pc_of(1), p.code[1], 0x8000),
            )
            .unwrap();
            racesim_trace::TraceSink::push(
                &mut t,
                TraceRecord::branch(p.pc_of(2), p.code[2], true, p.pc_of(0)),
            )
            .unwrap();
        }
        t
    }

    #[test]
    fn runs_on_both_core_kinds() {
        let t = loop_trace(500);
        let s53 = Simulator::new(Platform::a53_like()).run(&t).unwrap();
        let s72 = Simulator::new(Platform::a72_like()).run(&t).unwrap();
        assert_eq!(s53.core.instructions, 1500);
        assert_eq!(s72.core.instructions, 1500);
        assert!(s53.cpi() > 0.3 && s53.cpi() < 5.0, "{}", s53.cpi());
        assert!(s72.cpi() > 0.3 && s72.cpi() < 5.0, "{}", s72.cpi());
    }

    #[test]
    fn decode_errors_carry_the_first_occurrence_pc() {
        // The undecodable word first appears mid-trace, after valid words,
        // then recurs at another pc next to a second undecodable word.
        use racesim_isa::EncodedInst;
        let bad = EncodedInst(0xfe);
        let mut t = loop_trace(2);
        t.extend([TraceRecord::plain(0xdead0, bad)]);
        t.extend(loop_trace(2).iter().copied());
        t.extend([
            TraceRecord::plain(0xbeef0, EncodedInst(0xfd)),
            TraceRecord::plain(0xbeef4, bad),
        ]);
        let sim = Simulator::new(Platform::a53_like());
        let err = sim.run(&t).unwrap_err();
        assert!(matches!(err, SimError::Decode { pc: 0xdead0, .. }), "{err}");
        assert!(err.to_string().contains("0xdead0"));
        let compact = CompactTrace::from_records(t.records()).unwrap();
        assert_eq!(sim.run_compact(&compact).unwrap_err(), err);
    }

    #[test]
    fn malformed_records_are_trace_errors() {
        let mut t = loop_trace(1);
        let taken = t.records()[2];
        t.extend([taken.with_ea(0x40)]);
        let err = Simulator::new(Platform::a53_like()).run(&t).unwrap_err();
        assert!(matches!(err, SimError::Trace(_)), "{err}");
    }

    #[test]
    fn prefill_data_removes_cold_misses() {
        let t = loop_trace(100);
        let plat = Platform::a53_like();
        let cold = Simulator::new(plat.clone()).run(&t).unwrap();
        let warm = Simulator::with_decoder(
            plat,
            Decoder::new(),
            SimOptions {
                prefill_code: true,
                prefill_data: true,
                prefill_data_l2: false,
            },
        )
        .run(&t)
        .unwrap();
        assert!(warm.core.cycles < cold.core.cycles);
        assert_eq!(warm.mem.l1d.misses, 0, "all data prefilled");
    }

    #[test]
    fn profiled_run_matches_plain_run_and_builds_the_phase_tree() {
        let t = loop_trace(3000);
        let plat = Platform::a53_like();
        let plain = Simulator::new(plat.clone()).run(&t).unwrap();

        let prof = Profiler::enabled();
        let sim = Simulator::new(plat).with_profiler(prof.clone());
        let profiled = sim.run(&t).unwrap();
        assert_eq!(profiled, plain, "profiling must not change simulation");

        let snap = prof.snapshot();
        let simulate = snap.find(&["simulate"]).expect("root phase");
        assert_eq!(simulate.count, 1);
        assert_eq!(simulate.insts, plain.core.instructions);
        assert_eq!(simulate.cycles, plain.core.cycles);
        for path in [
            vec!["simulate", "fetch"],
            vec!["simulate", "fetch", "decode"],
            vec!["simulate", "execute"],
            vec!["simulate", "execute", "mem"],
            vec!["simulate", "execute", "mem", "l1"],
            vec!["simulate", "execute", "core"],
            vec!["simulate", "execute", "core", "deps"],
        ] {
            assert!(snap.find(&path).is_some(), "missing phase {path:?}");
        }
        let fetch = snap.find(&["simulate", "fetch"]).unwrap();
        let execute = snap.find(&["simulate", "execute"]).unwrap();
        assert_eq!(fetch.count, 9000);
        assert!(execute.count >= 9000);
        // Chunked fetch + execute cover nearly all of the run.
        assert!(
            fetch.total_ns + execute.total_ns >= simulate.total_ns * 9 / 10,
            "fetch {} + execute {} vs simulate {}",
            fetch.total_ns,
            execute.total_ns,
            simulate.total_ns
        );
        // The loop load hits L1 after warmup, so l1 accounts accesses.
        let l1 = snap.find(&["simulate", "execute", "mem", "l1"]).unwrap();
        assert!(l1.count > 1000, "l1 accesses recorded: {}", l1.count);

        // A disabled profiler keeps the plain path.
        let off = Simulator::new(Platform::a53_like()).with_profiler(Profiler::disabled());
        assert_eq!(off.run(&t).unwrap(), plain);
    }

    #[test]
    fn quirky_decoder_slows_fp_loops() {
        // Independent fadds: the quirky decoder serialises them through
        // the false dest-as-source dependency.
        let mut a = Asm::new();
        a.fadd(Reg::v(1), Reg::v(2), Reg::v(3));
        let p = a.finish();
        let t: TraceBuffer = (0..500)
            .map(|_| TraceRecord::plain(p.code_base, p.code[0]))
            .collect();
        let plat = Platform::a53_like();
        let fixed = Simulator::new(plat.clone()).run(&t).unwrap();
        let quirky = Simulator::with_decoder(
            plat,
            Decoder::with_quirks(racesim_decoder::Quirks::capstone_like()),
            SimOptions::default(),
        )
        .run(&t)
        .unwrap();
        assert!(
            quirky.core.cycles as f64 > fixed.core.cycles as f64 * 2.0,
            "quirk serialises: {} vs {}",
            quirky.core.cycles,
            fixed.core.cycles
        );
    }
}
