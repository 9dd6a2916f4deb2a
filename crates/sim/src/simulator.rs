//! Trace replay through a timing model.

use crate::platform::Platform;
use racesim_decoder::{DecodeError, Decoder};
use racesim_isa::{DynInst, StaticInst};
use racesim_mem::{HierarchyStats, MemoryHierarchy};
use racesim_telemetry::{Counter, Histogram, PhaseTimer, Profiler, Stopwatch, Telemetry};
use racesim_trace::{CompactIter, CompactTrace, TraceBuffer, TraceRecord};
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

/// The core model of a replay. A closed enum rather than a trait object,
/// so [`Replay::feed`] matches once per piece and runs a loop compiled
/// for the one model, with its per-record call inlined. (The models are
/// over a kilobyte each, hence the boxes.)
#[derive(Debug)]
enum Core {
    InOrder(Box<InOrderCore>),
    OutOfOrder(Box<OooCore>),
}

impl Core {
    fn new(cfg: &CoreConfig) -> Core {
        match cfg.kind {
            CoreKind::InOrder => Core::InOrder(Box::new(InOrderCore::new(cfg))),
            CoreKind::OutOfOrder => Core::OutOfOrder(Box::new(OooCore::new(cfg))),
        }
    }

    fn model(&mut self) -> &mut dyn CoreModel {
        match self {
            Core::InOrder(c) => &mut **c,
            Core::OutOfOrder(c) => &mut **c,
        }
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
///   fetch            records fetched; its time is the word decode
///     decode         one decoder call per distinct word, once per run
///   execute          compact trace → DynInst expansion, core model and
///                    memory hierarchy, fused record by record
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

/// Records replayed between clock reads when profiling: two reads per
/// chunk keep the timing overhead amortised to well under a nanosecond
/// per instruction.
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

    /// Replays a compact trace through the timing model: the simulator's
    /// prefill passes, then one [`Replay`] fed the whole trace.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Decode`] if the trace contains an undecodable
    /// word, at the pc of that word's first occurrence.
    pub fn run_compact(&self, trace: &CompactTrace) -> Result<SimStats, SimError> {
        let mut replay = self.replay();
        replay.prefill(trace);
        replay.feed(trace)?;
        Ok(replay.finish())
    }

    /// Starts an incremental replay on fresh core and memory state. Feed
    /// it a trace in pieces with [`Replay::feed`] and read the statistics
    /// with [`Replay::finish`]; the simulator's prefill options are not
    /// applied, since warming needs the whole trace up front (use
    /// [`Simulator::run_compact`] for that).
    pub fn replay(&self) -> Replay<'_> {
        let profiled = self.prof.on();
        let t_run = profiled.then(Instant::now);
        let mut core = Core::new(&self.platform.core);
        let mut mem = MemoryHierarchy::new(&self.platform.mem);
        if profiled {
            core.model().set_phase_accounting(true);
            mem.attach_profiler(&self.prof.mem);
        }
        Replay {
            sim: self,
            stopwatch: self.metrics.telemetry.stopwatch(),
            t_run,
            core,
            mem,
            table: Vec::new(),
        }
    }
}

/// One replay in progress: the core, the memory hierarchy and the decoded
/// word table, fed a trace piece by piece — the one replay loop every
/// simulation runs.
///
/// Each piece handed to [`Replay::feed`] is a [`CompactTrace`] whose word
/// table extends the one of the piece before, as a trace that is
/// recorded, fed and [cleared](CompactTrace::clear_records) in turn keeps
/// it; words new to the table are decoded at their first pc. Feeding a
/// trace whole or in pieces consumes the same records in the same order,
/// so every counter is the same.
#[derive(Debug)]
pub struct Replay<'s> {
    sim: &'s Simulator,
    stopwatch: Stopwatch,
    t_run: Option<Instant>,
    core: Core,
    mem: MemoryHierarchy,
    /// `trace.words()[i]` decoded, for every word seen so far.
    table: Vec<StaticInst>,
}

impl Replay<'_> {
    /// Runs the simulator's cache-warming passes over `trace`.
    fn prefill(&mut self, trace: &CompactTrace) {
        let opts = self.sim.options;
        if !(opts.prefill_code || opts.prefill_data || opts.prefill_data_l2) {
            return;
        }
        let mem = &mut self.mem;
        self.sim.prof.prefill.time(|| {
            for r in trace {
                if opts.prefill_code {
                    mem.prefill_code(r.pc());
                }
                if let Some(ea) = r.ea() {
                    if opts.prefill_data {
                        mem.prefill_data(ea);
                    } else if opts.prefill_data_l2 {
                        mem.prefill_data_l2(ea);
                    }
                }
            }
        });
    }

    /// Decodes the words `trace` adds to the table, in first-occurrence
    /// order, so the first word that fails is the one a record-by-record
    /// decode would have failed on, reported at the pc of its first use.
    fn decode_new_words(&mut self, trace: &CompactTrace) -> Result<(), SimError> {
        debug_assert!(
            trace.words().len() >= self.table.len(),
            "a fed trace's word table extends the previous one's"
        );
        let sim = self.sim;
        let start = self.table.len();
        for (&word, &pc) in trace.words()[start..]
            .iter()
            .zip(&trace.first_pcs()[start..])
        {
            let stat = sim
                .prof
                .decode
                .time(|| sim.decoder.decode(word))
                .map_err(|source| SimError::Decode { pc, source })?;
            self.table.push(stat);
        }
        Ok(())
    }

    /// Replays `trace`'s records. Its new words are decoded first
    /// (fetch/decode); then each record is expanded into a `DynInst` by
    /// indexing the table and handed straight to the core (execute), so
    /// no expanded record is stored. The clock is read only when a
    /// profiler is attached, twice per `REPLAY_CHUNK` records.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Decode`] if `trace` brings an undecodable
    /// word, at the pc of that word's first occurrence; no record of
    /// `trace` is replayed then.
    pub fn feed(&mut self, trace: &CompactTrace) -> Result<(), SimError> {
        let t0 = self.sim.prof.on().then(Instant::now);
        self.decode_new_words(trace)?;
        lap(&self.sim.prof.fetch, 0, t0);
        let (prof, table, mem) = (&self.sim.prof, &self.table[..], &mut self.mem);
        match &mut self.core {
            Core::InOrder(core) => replay_records(&mut **core, mem, table, trace.iter(), prof),
            Core::OutOfOrder(core) => replay_records(&mut **core, mem, table, trace.iter(), prof),
        }
        Ok(())
    }

    /// Drains the core and returns the run's statistics, recording them
    /// in the simulator's telemetry and profiler.
    pub fn finish(mut self) -> SimStats {
        let prof = &self.sim.prof;
        let t2 = prof.on().then(Instant::now);
        let core = self.core.model();
        core.finish(&mut self.mem);
        lap(&prof.execute, 0, t2);
        let stats = SimStats {
            core: core.stats(),
            mem: self.mem.stats(),
        };
        if let Some(t0) = self.t_run {
            prof.simulate.record_ns(t0.elapsed().as_nanos() as u64);
            prof.simulate.add_insts(stats.core.instructions);
            prof.simulate.add_cycles(stats.core.cycles);
            for (phase, cycles) in core.phase_cycles() {
                prof.core.child(phase).add_cycles(cycles);
            }
        }
        let metrics = &self.sim.metrics;
        if metrics.telemetry.is_enabled() {
            let us = self.stopwatch.elapsed_us();
            metrics.runs.inc();
            metrics.instructions.add(stats.core.instructions);
            metrics.cycles.add(stats.core.cycles);
            metrics.run_us.record(us);
            metrics
                .inst_per_ms
                .record(stats.core.instructions * 1000 / us.max(1));
        }
        stats
    }
}

/// The one replay loop: expands each record and times it on `core`. A
/// profiled run reads the clock around each `REPLAY_CHUNK` records and
/// charges the chunk to `execute`, and its record count to `fetch` too.
#[inline]
fn replay_records<C: CoreModel>(
    core: &mut C,
    mem: &mut MemoryHierarchy,
    table: &[StaticInst],
    mut records: CompactIter<'_>,
    prof: &SimProf,
) {
    let profiled = prof.on();
    while records.len() > 0 {
        let t0 = profiled.then(Instant::now);
        let n = records.len().min(REPLAY_CHUNK);
        for r in records.by_ref().take(n) {
            let inst = DynInst {
                pc: r.pc(),
                stat: table[r.word_id()],
                ea: r.ea().unwrap_or(0),
                taken: r.taken(),
                target: r.target().unwrap_or(0),
            };
            core.consume(&inst, mem);
        }
        if profiled {
            prof.fetch.add(n as u64, 0);
        }
        lap(&prof.execute, n, t0);
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

        let profiled_run = || {
            let prof = Profiler::enabled();
            let sim = Simulator::new(plat.clone()).with_profiler(prof.clone());
            let profiled = sim.run(&t).unwrap();
            assert_eq!(profiled, plain, "profiling must not change simulation");
            prof.snapshot()
        };
        let runs = [profiled_run(), profiled_run(), profiled_run()];

        let snap = &runs[0];
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
        // Chunked fetch + execute cover nearly all of the run. The spans
        // are wall-clock, and a preemption inside `simulate` but outside
        // its children can only lower one run's share, so the bound is
        // asked of the best of three runs.
        let shares: Vec<(u64, u64)> = runs
            .iter()
            .map(|snap| {
                let ns = |path: &[&str]| snap.find(path).unwrap().total_ns;
                (
                    ns(&["simulate", "fetch"]) + ns(&["simulate", "execute"]),
                    ns(&["simulate"]),
                )
            })
            .collect();
        assert!(
            shares
                .iter()
                .any(|&(covered, simulate)| covered >= simulate * 9 / 10),
            "(fetch + execute, simulate) ns per run: {shares:?}"
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
