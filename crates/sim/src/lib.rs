//! # racesim-sim
//!
//! The trace-driven simulator driver — the equivalent of Sniper-ARM's
//! back-end glue (Figure 3 of the paper): it replays word-interned
//! [`CompactTrace`](racesim_trace::CompactTrace)s, decoding each trace's
//! distinct instruction words once per run through the decoder library
//! (as Sniper caches decoded instructions), feeds the dynamic stream into
//! a core timing model, and collects the statistics the validation
//! methodology compares against hardware. [`Simulator::run`] accepts a
//! record buffer and compacts it first.
//!
//! # Example
//!
//! ```
//! use racesim_sim::{Platform, Simulator};
//! use racesim_isa::{asm::Asm, Reg};
//! use racesim_trace::{TraceBuffer, TraceRecord};
//!
//! // A tiny trace: 100 independent adds.
//! let mut a = Asm::new();
//! a.addi(Reg::x(1), Reg::x(2), 1);
//! let p = a.finish();
//! let trace: TraceBuffer = (0..100)
//!     .map(|_| TraceRecord::plain(p.code_base, p.code[0]))
//!     .collect();
//!
//! let sim = Simulator::new(Platform::a53_like());
//! let stats = sim.run(&trace)?;
//! assert_eq!(stats.core.instructions, 100);
//! assert!(stats.cpi() > 0.0);
//! # Ok::<(), racesim_sim::SimError>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod config_text;
mod platform;
mod simulator;

pub use platform::Platform;
pub use simulator::{SimError, SimOptions, SimStats, Simulator};
