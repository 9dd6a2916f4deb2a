//! # racesim-trace
//!
//! A streaming binary instruction-trace format — the project's equivalent of
//! Sniper's SIFT (Sniper Instruction Trace Format).
//!
//! The paper records each micro-benchmark and SPEC region **once** on the
//! ARM board and replays the trace through Sniper's timing models for every
//! simulated configuration. This crate plays the same role: the functional
//! front-end (in `racesim-kernels`) records a [`TraceRecord`] per executed
//! instruction, and the timing simulator (`racesim-sim`) replays them.
//!
//! Each record carries exactly what a timing model needs from the
//! front-end:
//!
//! * the program counter,
//! * the raw instruction word (like SIFT carrying instruction bytes),
//! * the effective address of memory operations,
//! * the architectural outcome of branches.
//!
//! Records are held for replay as a [`CompactTrace`]: each distinct word
//! is interned once into a per-trace table (which the simulator decodes
//! once per run), each record shrinks to a `u16` word id plus flags, the
//! pc is derived from control flow, and only effective addresses and
//! taken-branch targets are stored — about 3 bytes a record instead of
//! the 40 of a [`TraceRecord`]. A [`TraceBuffer`] holds the records
//! themselves, for producers and tests that want them one by one.
//!
//! The on-disk encoding is compact too: program counters are implicit while
//! control flow is sequential, instruction words are transmitted only the
//! first time a PC is seen, and addresses are delta-encoded varints. Loop
//! traces compress to roughly 2–4 bytes per instruction.
//!
//! # Example
//!
//! ```
//! use racesim_trace::{TraceBuffer, TraceReader, TraceRecord, TraceWriter};
//! use racesim_isa::EncodedInst;
//!
//! let mut bytes = Vec::new();
//! let mut w = TraceWriter::new(&mut bytes)?;
//! w.write(&TraceRecord::plain(0x1000, EncodedInst(1)))?;
//! w.write(&TraceRecord::memory(0x1004, EncodedInst(33), 0xdead_beef))?;
//! w.finish()?;
//!
//! let buf = TraceBuffer::from_reader(TraceReader::new(bytes.as_slice())?)?;
//! assert_eq!(buf.len(), 2);
//! assert_eq!(buf.records()[1].ea(), Some(0xdead_beef));
//! # Ok::<(), std::io::Error>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod buffer;
mod compact;
mod format;
mod record;
mod static_summary;
mod summary;
mod varint;

pub use buffer::TraceBuffer;
pub use compact::{CompactRecord, CompactTrace, Iter as CompactIter, MAX_WORDS};
pub use format::{TraceReader, TraceWriter, FORMAT_VERSION};
pub use record::{TraceRecord, TraceSink};
pub use static_summary::StaticSummary;
pub use summary::TraceSummary;
