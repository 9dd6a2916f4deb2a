//! # racesim-trace
//!
//! In-memory instruction traces — the project's counterpart of the traces
//! Sniper replays from SIFT (Sniper Instruction Trace Format) files.
//!
//! The paper records each micro-benchmark and SPEC region **once** on the
//! ARM board and replays the trace through Sniper's timing models for every
//! simulated configuration. This crate plays the same role: the functional
//! front-end (in `racesim-kernels`) records a [`TraceRecord`] per executed
//! instruction, and the timing simulator (`racesim-sim`) replays them.
//! Recording and replay happen in the same process, so traces never touch
//! the disk.
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
//! # Example
//!
//! ```
//! use racesim_trace::{CompactTrace, TraceBuffer, TraceRecord, TraceSink};
//! use racesim_isa::EncodedInst;
//!
//! let mut buf = TraceBuffer::new();
//! buf.push(TraceRecord::plain(0x1000, EncodedInst(1)))?;
//! buf.push(TraceRecord::memory(0x1004, EncodedInst(33), 0xdead_beef))?;
//!
//! let compact = CompactTrace::from_records(buf.records())?;
//! assert_eq!(compact.to_buffer(), buf);
//! assert_eq!(compact.iter().nth(1).and_then(|r| r.ea()), Some(0xdead_beef));
//! # Ok::<(), std::io::Error>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod buffer;
mod compact;
mod intmap;
mod record;
mod static_summary;
mod summary;

pub use buffer::TraceBuffer;
pub use compact::{CompactRecord, CompactTrace, Iter as CompactIter, MAX_WORDS};
pub use intmap::{IntHasher, IntMap};
pub use record::{TraceRecord, TraceSink};
pub use static_summary::StaticSummary;
pub use summary::TraceSummary;
