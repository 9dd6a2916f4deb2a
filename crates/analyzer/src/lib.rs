//! Static model linting for racesim.
//!
//! Simulator bugs split into two classes: implementation bugs (the timing
//! model mis-counts) and *specification* bugs (the model is configured
//! into a state no hardware could be in, or a kernel exercises memory it
//! never initialised). The racing methodology of the paper is very good at
//! hiding the second class: the tuner will happily absorb a nonsensical
//! parameter into a low-error configuration. This crate catches
//! specification bugs statically, before any simulation runs.
//!
//! The pass families, one shared diagnostics engine:
//!
//! * [`param`] — lints a [`racesim_race::ParamSpace`] (degenerate
//!   dimensions, duplicated candidates, cross-parameter invariants over
//!   apply-able configurations, dead parameters).
//! * [`platform`] — checks a single [`racesim_sim::Platform`] against
//!   hardware invariants; reused by the validator and the CLI.
//! * [`kernel`] — abstract interpretation over decoded programs: reads of
//!   never-written reserved memory, unreachable blocks, branches that
//!   leave the program.
//! * [`ir`] — static CFG/dataflow IR per kernel (RA4xx): dead register
//!   writes, degenerate and inescapable loops, static trip counts, and
//!   the [`ir::KernelProfile`] the coverage matrix is built from.
//! * [`coverage`] — the campaign-level parameter-coverage matrix
//!   (RA41x): which kernels can statically observe each `ParamSpace`
//!   dimension, which dimensions no kernel observes, and which kernels
//!   observe nothing uniquely.
//! * [`determinism`] — audits the invariants resume and parallel racing
//!   depend on (RA5xx): checkpoint byte-stability, replay and thread
//!   determinism, space construction order, float reduction order.
//! * [`effects`] — checks a board's measurement noise against the race's
//!   statistical resolution (can the significance tests distinguish
//!   near-elite configurations at all?).
//!
//! All passes emit [`Diagnostic`]s with stable `RA...` codes; see
//! `DESIGN.md` for the full table.

pub mod coverage;
pub mod determinism;
pub mod diag;
pub mod effects;
pub mod ir;
pub mod kernel;
pub mod param;
pub mod platform;

pub use diag::{Diagnostic, Lint, Report, Severity};
