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
//! Records are held for replay as a [`CompactTrace`], which, like SIFT,
//! stores the static code once and per record only what the code does
//! not imply. Its static tables hold each distinct word once (the
//! simulator decodes the table once per run), the word at each pc, and
//! each word's shape (memory op, branch, direct-branch delta). The pc of
//! a record follows from control flow, and its word and kind from its
//! pc, so the dynamic streams keep only a bit per branch outcome, a
//! varint per effective address (a delta from the word's previous one)
//! and per target the word's delta does not give. The micro suite takes
//! about 0.16 bytes a record at `--scale 64`, against the 40 of a
//! [`TraceRecord`]. A [`TraceBuffer`] holds the records themselves, for
//! producers and tests that want them one by one.
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
