//! # racesim-dist
//!
//! Distributed racing campaigns: a coordinator/worker subsystem that
//! shards one tuning iteration's `(configuration × kernel)` evaluations
//! across a pool of worker processes — without changing a single bit of
//! the campaign's outcome.
//!
//! The paper runs irace on a 24-context host; this crate is the step
//! past one host (or one process). Three pieces:
//!
//! - [`wire`] — a framed wire protocol: 4-byte big-endian length prefix
//!   plus one flat JSON object per frame, costs as exact `f64` bit
//!   patterns, configurations as their
//!   [`Configuration::code`](racesim_race::Configuration::code). Torn,
//!   oversized, and malformed frames are typed
//!   [`WireError`]s.
//! - [`worker`] — the serve loop behind `racesim worker`: rebuild the
//!   evaluation stack from the `init` handshake, answer `eval` frames
//!   through the same `eval_with_retry` classification point the
//!   in-process paths use, plus deterministic death hooks
//!   (`--exit-after` / `--only-worker`) for fault-injection tests.
//! - [`pool`] — the coordinator: a [`WorkerPool`] implementing the
//!   racing loop's `EvalDispatch` seam with a completion-driven event
//!   loop (two requests in flight per worker), per-request timeouts,
//!   re-dispatch of tasks whose worker died, quarantine of repeatedly
//!   failing slots, and a local fallback so a campaign completes even
//!   with every worker gone.
//!
//! Determinism is the design constraint: results are reduced in
//! canonical configuration order, so `racesim tune --workers N` produces
//! bit-identical checkpoints, elimination order, and journal digest to a
//! sequential run — kill a worker mid-iteration and only the
//! `worker_failed` journal events differ.

#![warn(missing_docs)]

pub mod pool;
pub mod wire;
pub mod worker;

pub use pool::{PoolOptions, ProcessLauncher, WorkerLauncher, WorkerLink, WorkerPool};
pub use wire::{InitSpec, Outcome, Request, Response, WireError, MAX_FRAME};
pub use worker::{campaign_stack, serve, serve_stdio, ServeEnd, WorkerOptions, WorkerStack};
