//! The coordinator side of a distributed campaign: a pool of evaluation
//! workers behind the racing loop's [`EvalDispatch`] seam.
//!
//! # Dispatch
//!
//! `eval_batch` is one event loop on the calling thread; nothing waits
//! on a timer to learn that a batch has finished. Each worker connection
//! has a reader thread that forwards every frame it reads into one
//! merged reply channel, tagged with the slot and the connection's
//! **generation** (a pool-wide spawn counter). Per batch the loop:
//!
//! 1. spawns every missing worker at once — launch each process, send
//!    each `init` (with [`PoolOptions::estimates`], so a worker need not
//!    probe the board) — and takes the `ready` replies off the merged
//!    channel like any other frame, so first-batch spawn runs in
//!    parallel;
//! 2. keeps up to two requests in flight per ready slot, filling the
//!    least-loaded slot first: when a worker answers one request the
//!    next is already waiting on its stdin, so it never idles for a
//!    coordinator round trip;
//! 3. blocks on the merged channel until the next frame or the earliest
//!    deadline, stores each reply in its task's cell, hands that slot the
//!    next queued task, and returns the moment the last cell is filled
//!    and every handshake it started is done (so each worker it spawned
//!    is journaled with it).
//!
//! Workers answer in order, so a reply must carry the id of the oldest
//! request in flight on its connection. A frame whose generation is not
//! the slot's live connection's was read from a connection already torn
//! down and is dropped: a killed worker's last frames can never be taken
//! for its replacement's.
//!
//! A request's deadline ([`PoolOptions::request_timeout`]) starts when
//! the worker can begin it: at its send when nothing is ahead of it,
//! otherwise at the reply to the request ahead. Pipelining therefore
//! cannot make the timeout fire early on a healthy worker.
//!
//! The racing loop then classifies outcomes **in canonical configuration
//! order**, exactly as it does for the sequential and in-process-thread
//! backends — which worker answered which request, and in what order,
//! cannot influence elimination decisions, checkpoint bytes, or the
//! journal digest. That is the whole determinism argument, and the
//! `dispatch_backend_matches_the_inline_path` test in `racesim-race`
//! plus the CLI's end-to-end determinism test enforce it.
//!
//! # Failure handling
//!
//! Worker failures map into the campaign fault taxonomy rather than
//! inventing a parallel one:
//!
//! - a dead or hung worker (process exit, torn frame, per-request
//!   timeout, protocol violation) is killed and every task it held in
//!   flight is **re-queued** for any healthy worker — the evaluations
//!   themselves are presumed innocent, so their retry accounting is
//!   untouched;
//! - a slot that fails [`PoolOptions::max_failures`] times is
//!   **quarantined** — never respawned for the rest of the campaign —
//!   mirroring how `Quarantine` retires faulty instances;
//! - transient *evaluation* faults never reach the pool: the worker
//!   retries and escalates them itself via `eval_with_retry`, so wire
//!   outcomes are final.
//!
//! If every slot ends up quarantined, leftover tasks run locally through
//! the same `eval_with_retry` path — a distributed campaign degrades to
//! a sequential one instead of failing, and still exits 0.
//!
//! Every spawn, failure, and quarantine is journaled
//! ([`Event::WorkerSpawned`] / [`Event::WorkerFailed`] /
//! [`Event::WorkerQuarantined`]), and every successful remote evaluation
//! is journaled as the [`Event::Evaluation`] an in-process run records,
//! with the worker-measured wall time — so `racesim report` and
//! `racesim replay` observe distributed runs.

use std::collections::VecDeque;
use std::io::{Read, Write};
use std::process::{Child, Command, Stdio};
use std::sync::mpsc::{self, Receiver, RecvTimeoutError, Sender};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::Mutex;
use racesim_core::latency::LatencyEstimates;
use racesim_race::{
    eval_with_retry, Configuration, EvalDispatch, EvalError, ParamSpace, RetryPolicy, TryCostFn,
};
use racesim_telemetry::{Counter, Event, Telemetry};

use crate::wire::{read_response, write_request, InitSpec, Request, Response, WireError};

/// Requests kept in flight per worker: the one it is evaluating plus one
/// queued behind it on its stdin.
const PIPELINE_DEPTH: usize = 2;

/// One classified evaluation outcome plus the retries it burned — the
/// exact tuple `eval_with_retry` returns and `eval_batch` must fill
/// per task slot.
type EvalOutcome = (Result<f64, EvalError>, u64);

/// One spawned worker's transport: where frames go, where they come
/// from, and the process handle (if any) to reap on teardown.
pub struct WorkerLink {
    /// Frame sink (the worker's stdin for spawned processes).
    pub writer: Box<dyn Write + Send>,
    /// Frame source (the worker's stdout for spawned processes).
    pub reader: Box<dyn Read + Send>,
    /// Process id, journaled in `worker_spawned` (0 if not a process).
    pub pid: u64,
    /// The child process to kill/reap when the link dies.
    pub child: Option<Child>,
}

impl std::fmt::Debug for WorkerLink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerLink")
            .field("pid", &self.pid)
            .field("process", &self.child.is_some())
            .finish()
    }
}

/// Creates transports for worker slots. The production launcher spawns
/// `racesim worker` processes; tests substitute in-process loopbacks.
pub trait WorkerLauncher: Send + Sync {
    /// Launches (or re-launches) the transport for slot `worker`.
    ///
    /// # Errors
    ///
    /// A description of why the worker could not be started.
    fn launch(&self, worker: usize) -> Result<WorkerLink, String>;
}

/// Spawns worker processes from an argv, wiring frames over the child's
/// stdin/stdout and leaving stderr attached for diagnostics.
#[derive(Debug, Clone)]
pub struct ProcessLauncher {
    argv: Vec<String>,
}

impl ProcessLauncher {
    /// A launcher running `argv` (program + arguments) per worker.
    ///
    /// # Panics
    ///
    /// Panics if `argv` is empty.
    pub fn new(argv: Vec<String>) -> ProcessLauncher {
        assert!(!argv.is_empty(), "worker command must name a program");
        ProcessLauncher { argv }
    }
}

impl WorkerLauncher for ProcessLauncher {
    fn launch(&self, _worker: usize) -> Result<WorkerLink, String> {
        let mut child = Command::new(&self.argv[0])
            .args(&self.argv[1..])
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("spawn {:?} failed: {e}", self.argv[0]))?;
        let stdin = child.stdin.take().ok_or("worker stdin unavailable")?;
        let stdout = child.stdout.take().ok_or("worker stdout unavailable")?;
        Ok(WorkerLink {
            writer: Box::new(stdin),
            reader: Box::new(stdout),
            pid: u64::from(child.id()),
            child: Some(child),
        })
    }
}

/// Coordinator-side pool policy.
#[derive(Debug, Clone)]
pub struct PoolOptions {
    /// Worker slots (>= 1).
    pub workers: usize,
    /// Campaign context sent in each worker's `init` handshake; the
    /// `worker` field is overwritten with the slot index per spawn.
    pub init: InitSpec,
    /// Per-request deadline, counted from when the worker can begin the
    /// request; a worker that blows it is killed and its tasks
    /// re-dispatched. The worker-side watchdog (`timeout_ms` in the init
    /// spec) should be the tighter bound — this is the backstop against
    /// a wedged process.
    pub request_timeout: Duration,
    /// Deadline for spawn + handshake (a worker sent no `estimates`
    /// probes the board while it builds its stack, so this is
    /// deliberately generous).
    pub spawn_timeout: Duration,
    /// Failures before a slot is quarantined for good.
    pub max_failures: u32,
    /// Workload name per instance, for the `evaluation` events the pool
    /// journals; instances past the end are named by index.
    pub workloads: Vec<String>,
    /// The coordinator's latency estimates, sent in each `init` so the
    /// workers build their stacks without probing the board. `None` (the
    /// default) leaves each worker to probe for itself.
    pub estimates: Option<LatencyEstimates>,
}

impl PoolOptions {
    /// Defaults: 2-minute request backstop, 5-minute spawn deadline,
    /// quarantine after 3 failures, no workload names, no latency
    /// estimates.
    pub fn new(workers: usize, init: InitSpec) -> PoolOptions {
        PoolOptions {
            workers: workers.max(1),
            init,
            request_timeout: Duration::from_secs(120),
            spawn_timeout: Duration::from_secs(300),
            max_failures: 3,
            workloads: Vec::new(),
            estimates: None,
        }
    }
}

/// One frame a reader thread forwarded to the merged reply channel.
struct Inbound {
    /// The slot whose worker sent it.
    slot: usize,
    /// The generation of the connection it was read from.
    generation: u64,
    frame: Result<Response, WireError>,
}

/// Whether `frame` is the last a worker stream carries: `bye`, or a
/// read error.
fn ends_stream(frame: &Result<Response, WireError>) -> bool {
    !matches!(frame, Ok(Response::Ready { .. } | Response::Eval { .. }))
}

/// A live worker connection: the frame sink, the process, and the
/// requests it owes replies for. Its frames arrive on the merged reply
/// channel, tagged with `generation`.
struct Conn {
    writer: Box<dyn Write + Send>,
    child: Option<Child>,
    pid: u64,
    generation: u64,
    /// Whether the worker has answered `init` with a matching `ready`.
    ready: bool,
    /// Requests sent and not yet answered, oldest first, as
    /// `(request id, task index)`.
    in_flight: VecDeque<(u64, usize)>,
    /// When the frame the worker owes next (its `ready`, or the reply to
    /// the oldest request in flight) became answerable.
    since: Instant,
}

impl Conn {
    /// When the worker is overdue, if it owes a frame at all.
    fn deadline(&self, opts: &PoolOptions) -> Option<Instant> {
        if !self.ready {
            Some(self.since + opts.spawn_timeout)
        } else if !self.in_flight.is_empty() {
            Some(self.since + opts.request_timeout)
        } else {
            None
        }
    }
}

impl Drop for Conn {
    /// Tears the connection down: closes the sink (EOF on the worker's
    /// stdin), then kills and reaps the process if there is one.
    fn drop(&mut self) {
        self.writer = Box::new(std::io::sink());
        if let Some(mut child) = self.child.take() {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

/// Per-slot lifecycle state.
#[derive(Default)]
struct Slot {
    conn: Option<Conn>,
    failures: u32,
    quarantined: bool,
}

/// Everything a batch mutates. Batches run one at a time; the lock is
/// held for a whole batch.
struct State {
    slots: Vec<Slot>,
    /// Cloned into every reader thread.
    replies_tx: Sender<Inbound>,
    /// The merged reply channel. The pool holds a sender, so it never
    /// disconnects.
    replies: Receiver<Inbound>,
    next_id: u64,
    next_generation: u64,
}

/// One batch's tasks and the progress made on them.
struct Batch<'a> {
    space: &'a ParamSpace,
    tasks: &'a [&'a Configuration],
    instance: usize,
    retry: &'a RetryPolicy,
    /// One outcome per task, filled as replies land.
    cells: Vec<Option<EvalOutcome>>,
    /// Tasks not yet sent, or re-queued after their worker failed.
    queue: VecDeque<usize>,
    /// Cells still empty.
    left: usize,
}

/// A pool of evaluation workers implementing [`EvalDispatch`].
pub struct WorkerPool {
    launcher: Box<dyn WorkerLauncher>,
    opts: PoolOptions,
    fallback: Arc<dyn TryCostFn + Send + Sync>,
    telemetry: Telemetry,
    state: Mutex<State>,
    m_dispatched: Counter,
    m_redispatched: Counter,
    m_fallback: Counter,
}

impl std::fmt::Debug for WorkerPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerPool")
            .field("workers", &self.opts.workers)
            .field("max_failures", &self.opts.max_failures)
            .finish()
    }
}

impl WorkerPool {
    /// Creates a pool of `opts.workers` slots. Workers are spawned
    /// lazily, all at once on the first batch. `fallback` is the
    /// coordinator's own cost function, used only when every slot is
    /// quarantined.
    pub fn new(
        launcher: Box<dyn WorkerLauncher>,
        opts: PoolOptions,
        fallback: Arc<dyn TryCostFn + Send + Sync>,
        telemetry: Telemetry,
    ) -> WorkerPool {
        let (replies_tx, replies) = mpsc::channel();
        let state = State {
            slots: (0..opts.workers).map(|_| Slot::default()).collect(),
            replies_tx,
            replies,
            next_id: 1,
            next_generation: 0,
        };
        WorkerPool {
            launcher,
            m_dispatched: telemetry.counter("dist.dispatched"),
            m_redispatched: telemetry.counter("dist.redispatched"),
            m_fallback: telemetry.counter("dist.local_fallback"),
            opts,
            fallback,
            telemetry,
            state: Mutex::new(state),
        }
    }

    /// Launches slot `w`'s worker, starts its reader thread and sends the
    /// `init` handshake. The `ready` reply arrives on the merged channel.
    fn launch(&self, w: usize, generation: u64, tx: &Sender<Inbound>) -> Result<Conn, String> {
        let link = self.launcher.launch(w)?;
        let mut reader = link.reader;
        let mut conn = Conn {
            writer: link.writer,
            child: link.child,
            pid: link.pid,
            generation,
            ready: false,
            in_flight: VecDeque::new(),
            since: Instant::now(),
        };
        let tx = tx.clone();
        std::thread::Builder::new()
            .name(format!("dist-rx-{w}"))
            .spawn(move || loop {
                let frame = read_response(&mut reader);
                let last = ends_stream(&frame);
                let inbound = Inbound {
                    slot: w,
                    generation,
                    frame,
                };
                if tx.send(inbound).is_err() || last {
                    break;
                }
            })
            .map_err(|e| format!("reader thread spawn failed: {e}"))?;
        let mut spec = self.opts.init.clone();
        spec.worker = w;
        let init = Request::Init {
            spec,
            estimates: self.opts.estimates,
        };
        write_request(&mut conn.writer, &init)
            .map_err(|e| format!("init handshake send failed: {e}"))?;
        Ok(conn)
    }

    /// Launches every slot that has no worker and is not quarantined.
    /// A launch failure counts against its slot, which is retried until
    /// it launches or quarantines.
    fn spawn_missing(&self, st: &mut State) {
        for (w, slot) in st.slots.iter_mut().enumerate() {
            while slot.conn.is_none() && !slot.quarantined {
                st.next_generation += 1;
                match self.launch(w, st.next_generation, &st.replies_tx) {
                    Ok(conn) => slot.conn = Some(conn),
                    Err(reason) => self.record_failure(slot, w, &reason),
                }
            }
        }
    }

    /// Records one failure on slot `w`, quarantining it at the threshold.
    fn record_failure(&self, slot: &mut Slot, w: usize, reason: &str) {
        slot.failures += 1;
        self.telemetry.emit(Event::WorkerFailed {
            worker: w,
            reason: reason.to_string(),
        });
        if !slot.quarantined && slot.failures >= self.opts.max_failures {
            slot.quarantined = true;
            self.telemetry.emit(Event::WorkerQuarantined {
                worker: w,
                failures: u64::from(slot.failures),
            });
        }
    }

    /// Kills slot `w`'s worker, re-queues every task it held in flight
    /// and records the failure. The evaluations are presumed innocent of
    /// the worker's death: their retry accounting is untouched.
    fn fail(&self, slot: &mut Slot, w: usize, reason: &str, queue: &mut VecDeque<usize>) {
        if let Some(conn) = slot.conn.take() {
            for &(_, task) in &conn.in_flight {
                self.m_redispatched.inc();
                queue.push_back(task);
            }
        }
        self.record_failure(slot, w, reason);
    }

    /// Sends queued tasks to ready workers, always to the one with the
    /// fewest requests in flight, until every ready worker has
    /// `PIPELINE_DEPTH` or the queue is empty.
    fn feed(&self, st: &mut State, b: &mut Batch<'_>) {
        while let Some(&task) = b.queue.front() {
            let Some((w, slot)) = st
                .slots
                .iter_mut()
                .enumerate()
                .filter(|(_, s)| {
                    s.conn
                        .as_ref()
                        .is_some_and(|c| c.ready && c.in_flight.len() < PIPELINE_DEPTH)
                })
                .min_by_key(|(_, s)| s.conn.as_ref().map_or(0, |c| c.in_flight.len()))
            else {
                return;
            };
            b.queue.pop_front();
            let id = st.next_id;
            st.next_id += 1;
            let req = Request::Eval {
                id,
                config: b.tasks[task].code(),
                instance: b.instance,
                retry: *b.retry,
            };
            let conn = slot.conn.as_mut().expect("filtered to live connections");
            if conn.in_flight.is_empty() {
                conn.since = Instant::now();
            }
            conn.in_flight.push_back((id, task));
            if let Err(e) = write_request(&mut conn.writer, &req) {
                self.fail(slot, w, &format!("request send failed: {e}"), &mut b.queue);
            }
        }
    }

    /// Handles one frame from the merged channel.
    fn on_frame(&self, st: &mut State, inbound: Inbound, b: &mut Batch<'_>) {
        let w = inbound.slot;
        let slot = &mut st.slots[w];
        let Some(conn) = slot
            .conn
            .as_mut()
            .filter(|c| c.generation == inbound.generation)
        else {
            return; // read on a connection already torn down
        };
        let reason = if !conn.ready {
            let ours = b.space.len();
            match inbound.frame {
                Ok(Response::Ready { n_params, .. }) if n_params == ours => {
                    conn.ready = true;
                    self.telemetry.emit(Event::WorkerSpawned {
                        worker: w,
                        pid: conn.pid,
                        init_ms: conn.since.elapsed().as_millis() as u64,
                    });
                    return;
                }
                Ok(Response::Ready { n_params, .. }) => format!(
                    "space mismatch: worker has {n_params} parameters, coordinator has {ours}"
                ),
                Ok(resp) => format!("handshake protocol violation: {resp:?}"),
                Err(WireError::Closed) => "worker exited during handshake".to_string(),
                Err(e) => format!("handshake failed: {e}"),
            }
        } else {
            match inbound.frame {
                Ok(Response::Eval {
                    id,
                    outcome,
                    retries,
                    micros,
                }) if conn.in_flight.front().is_some_and(|&(head, _)| head == id) => {
                    let (_, task) = conn.in_flight.pop_front().expect("matched the head");
                    conn.since = Instant::now();
                    self.m_dispatched.inc();
                    let result = outcome.into_result();
                    if let Ok(cost) = result {
                        self.journal_evaluation(b.instance, micros, cost);
                    }
                    b.cells[task] = Some((result, retries));
                    b.left -= 1;
                    return;
                }
                Ok(resp) => format!("protocol violation: unexpected {resp:?}"),
                Err(WireError::Closed) => "worker exited mid-request".to_string(),
                Err(e) => format!("wire fault: {e}"),
            }
        };
        self.fail(slot, w, &reason, &mut b.queue);
    }

    /// Journals a remote evaluation as the `evaluation` event an
    /// in-process run records for it.
    fn journal_evaluation(&self, instance: usize, micros: u64, cost: f64) {
        if self.telemetry.is_enabled() {
            let workload = match self.opts.workloads.get(instance) {
                Some(name) => name.clone(),
                None => format!("instance {instance}"),
            };
            self.telemetry.emit(Event::Evaluation {
                workload,
                micros,
                cost,
            });
        }
    }

    /// Fails every worker whose handshake or oldest request is overdue.
    fn expire(&self, st: &mut State, queue: &mut VecDeque<usize>) {
        let now = Instant::now();
        for (w, slot) in st.slots.iter_mut().enumerate() {
            let Some(conn) = &slot.conn else { continue };
            if conn.deadline(&self.opts).is_some_and(|d| d <= now) {
                let reason = if conn.ready {
                    format!(
                        "request timed out after {}ms",
                        self.opts.request_timeout.as_millis()
                    )
                } else {
                    format!(
                        "handshake timed out after {}ms",
                        self.opts.spawn_timeout.as_millis()
                    )
                };
                self.fail(slot, w, &reason, queue);
            }
        }
    }
}

impl EvalDispatch for WorkerPool {
    fn eval_batch(
        &self,
        space: &ParamSpace,
        tasks: &[&Configuration],
        instance: usize,
        retry: &RetryPolicy,
    ) -> Vec<EvalOutcome> {
        let mut b = Batch {
            space,
            tasks,
            instance,
            retry,
            cells: (0..tasks.len()).map(|_| None).collect(),
            queue: (0..tasks.len()).collect(),
            left: tasks.len(),
        };
        let mut guard = self.state.lock();
        let st = &mut *guard;
        loop {
            if b.left > 0 {
                self.spawn_missing(st);
                if st.slots.iter().all(|s| s.quarantined) {
                    // Every slot quarantined with work left: degrade to
                    // the local path so the campaign still completes (and
                    // still exits 0). Nothing is in flight on a
                    // quarantined slot.
                    for task in b.queue.drain(..) {
                        self.m_fallback.inc();
                        b.cells[task] = Some(eval_with_retry(
                            self.fallback.as_ref(),
                            tasks[task],
                            space,
                            instance,
                            retry,
                        ));
                    }
                    break;
                }
                self.feed(st, &mut b);
            }
            // Wait for the next frame or the earliest deadline. A batch
            // also waits out the handshakes it started, so every worker
            // it spawned is ready, and journaled, when it returns.
            let Some(deadline) = st
                .slots
                .iter()
                .filter_map(|s| s.conn.as_ref()?.deadline(&self.opts))
                .min()
            else {
                if b.left == 0 {
                    break;
                }
                // A send just failed and left nothing in flight: go
                // round again to respawn.
                continue;
            };
            match st
                .replies
                .recv_timeout(deadline.saturating_duration_since(Instant::now()))
            {
                Ok(inbound) => self.on_frame(st, inbound, &mut b),
                Err(RecvTimeoutError::Timeout) => self.expire(st, &mut b.queue),
                Err(RecvTimeoutError::Disconnected) => {
                    unreachable!("the pool holds a sender of its reply channel")
                }
            }
        }
        b.cells
            .into_iter()
            .map(|cell| cell.expect("every task has an outcome"))
            .collect()
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        let st = self.state.get_mut();
        // Orderly goodbye to every worker at once; the kill in
        // Conn::drop is the backstop for workers that ignore it.
        let mut awaiting: Vec<Option<u64>> = st
            .slots
            .iter_mut()
            .map(|slot| {
                let conn = slot.conn.as_mut()?;
                write_request(&mut conn.writer, &Request::Shutdown)
                    .is_ok()
                    .then_some(conn.generation)
            })
            .collect();
        let deadline = Instant::now() + Duration::from_millis(500);
        while awaiting.iter().any(Option::is_some) {
            let wait = deadline.saturating_duration_since(Instant::now());
            let Ok(inbound) = st.replies.recv_timeout(wait) else {
                break;
            };
            if ends_stream(&inbound.frame) && awaiting[inbound.slot] == Some(inbound.generation) {
                awaiting[inbound.slot] = None;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::worker::{serve, WorkerOptions, WorkerStack};
    use std::os::unix::net::UnixStream;
    use std::sync::atomic::Ordering;

    struct LinearCost;
    impl TryCostFn for LinearCost {
        fn try_cost(
            &self,
            cfg: &Configuration,
            space: &ParamSpace,
            instance: usize,
        ) -> Result<f64, EvalError> {
            match instance {
                3 => Err(EvalError::Transient("flaky board".to_string())),
                _ => Ok(cfg.integer(space, "x") as f64 + instance as f64 * 0.125),
            }
        }
    }

    fn space() -> ParamSpace {
        let mut s = ParamSpace::new();
        s.add_integer("x", &[1, 2, 3, 4, 5, 6, 7, 8]);
        s
    }

    /// Sleeps before every evaluation, then costs like [`LinearCost`].
    struct SlowCost(Duration);
    impl TryCostFn for SlowCost {
        fn try_cost(
            &self,
            cfg: &Configuration,
            space: &ParamSpace,
            instance: usize,
        ) -> Result<f64, EvalError> {
            std::thread::sleep(self.0);
            LinearCost.try_cost(cfg, space, instance)
        }
    }

    /// Serves a synthetic stack evaluating with `cost` over a socketpair,
    /// in a thread. `on_init` is handed the latency estimates the
    /// worker's `init` carried.
    fn serve_in_thread(
        opts: WorkerOptions,
        cost: Arc<dyn TryCostFn + Send + Sync>,
        on_init: impl FnOnce(Option<LatencyEstimates>) + Send + 'static,
    ) -> Result<WorkerLink, String> {
        let (coord, work) = UnixStream::pair().map_err(|e| e.to_string())?;
        std::thread::spawn(move || {
            let mut reader = work.try_clone().expect("clone socket");
            let mut writer = work;
            let _ = serve(&mut reader, &mut writer, &opts, |_, estimates| {
                on_init(estimates);
                Ok(WorkerStack {
                    space: space(),
                    cost,
                    n_instances: 4,
                })
            });
        });
        let reader = coord.try_clone().map_err(|e| e.to_string())?;
        Ok(WorkerLink {
            writer: Box::new(coord),
            reader: Box::new(reader),
            pid: 0,
            child: None,
        })
    }

    /// Serves [`LinearCost`] workers.
    struct Loopback {
        opts: WorkerOptions,
    }

    impl WorkerLauncher for Loopback {
        fn launch(&self, _worker: usize) -> Result<WorkerLink, String> {
            serve_in_thread(self.opts.clone(), Arc::new(LinearCost), |_| {})
        }
    }

    /// Serves [`SlowCost`] workers.
    struct Slow(Duration);

    impl WorkerLauncher for Slow {
        fn launch(&self, _worker: usize) -> Result<WorkerLink, String> {
            serve_in_thread(WorkerOptions::default(), Arc::new(SlowCost(self.0)), |_| {})
        }
    }

    /// Serves like [`Loopback`], except that slot 0's first worker dies
    /// on its first evaluation request, with everything it held unanswered.
    struct KillFirst {
        launches: std::sync::atomic::AtomicUsize,
    }

    impl WorkerLauncher for KillFirst {
        fn launch(&self, worker: usize) -> Result<WorkerLink, String> {
            let first = self.launches.fetch_add(1, Ordering::Relaxed) == 0;
            let opts = WorkerOptions {
                exit_after: (first && worker == 0).then_some(1),
                only_worker: None,
            };
            Loopback { opts }.launch(worker)
        }
    }

    /// Serves [`LinearCost`] workers, except that the first one launched
    /// takes 400 ms per evaluation.
    struct SlowFirst {
        launches: std::sync::atomic::AtomicUsize,
    }

    impl WorkerLauncher for SlowFirst {
        fn launch(&self, _worker: usize) -> Result<WorkerLink, String> {
            let cost: Arc<dyn TryCostFn + Send + Sync> =
                if self.launches.fetch_add(1, Ordering::Relaxed) == 0 {
                    Arc::new(SlowCost(Duration::from_millis(400)))
                } else {
                    Arc::new(LinearCost)
                };
            serve_in_thread(WorkerOptions::default(), cost, |_| {})
        }
    }

    /// Serves [`LinearCost`] workers and sends on the latency estimates
    /// each one's `init` carried.
    struct Recording(mpsc::Sender<Option<LatencyEstimates>>);

    impl WorkerLauncher for Recording {
        fn launch(&self, _worker: usize) -> Result<WorkerLink, String> {
            let seen = self.0.clone();
            serve_in_thread(WorkerOptions::default(), Arc::new(LinearCost), move |est| {
                let _ = seen.send(est);
            })
        }
    }

    /// A launcher that never produces a worker.
    struct Stillborn;
    impl WorkerLauncher for Stillborn {
        fn launch(&self, _worker: usize) -> Result<WorkerLink, String> {
            Err("no such worker binary".to_string())
        }
    }

    fn configs(space: &ParamSpace, picks: &[u16]) -> Vec<Configuration> {
        picks
            .iter()
            .map(|&k| {
                let mut cfg = space.default_configuration();
                cfg.set_value(0, racesim_race::Value::Int(k));
                cfg
            })
            .collect()
    }

    #[test]
    fn batches_come_back_in_task_order_bit_identically() {
        let space = space();
        let pool = WorkerPool::new(
            Box::new(Loopback {
                opts: WorkerOptions::default(),
            }),
            PoolOptions::new(3, InitSpec::default()),
            Arc::new(LinearCost),
            Telemetry::disabled(),
        );
        let cfgs = configs(&space, &[4, 0, 7, 2, 5, 1]);
        let tasks: Vec<&Configuration> = cfgs.iter().collect();
        let got = pool.eval_batch(&space, &tasks, 2, &RetryPolicy::immediate(1));
        assert_eq!(got.len(), tasks.len());
        for (slot, (result, retries)) in got.iter().enumerate() {
            let expect = eval_with_retry(
                &LinearCost,
                tasks[slot],
                &space,
                2,
                &RetryPolicy::immediate(1),
            );
            assert_eq!(
                result.clone().map(f64::to_bits),
                expect.0.map(f64::to_bits),
                "slot {slot} diverged"
            );
            assert_eq!(*retries, expect.1);
        }
    }

    /// Asserts `got` equals the local `eval_with_retry` path task by
    /// task: costs bit for bit, errors and retry counts exactly.
    fn assert_matches_local(
        got: &[EvalOutcome],
        tasks: &[&Configuration],
        space: &ParamSpace,
        instance: usize,
        retry: &RetryPolicy,
    ) {
        assert_eq!(got.len(), tasks.len());
        for (slot, (result, retries)) in got.iter().enumerate() {
            let (want, want_retries) =
                eval_with_retry(&LinearCost, tasks[slot], space, instance, retry);
            assert_eq!(
                result.clone().map(f64::to_bits),
                want.map(f64::to_bits),
                "slot {slot} diverged"
            );
            assert_eq!(*retries, want_retries, "slot {slot} retries diverged");
        }
    }

    #[test]
    fn many_small_batches_finish_without_waiting_on_a_timer() {
        // A poll-driven pool idles a timer tick at every batch tail; 100
        // batches of 3 trivial tasks on 2 slots would take seconds.
        let space = space();
        let pool = WorkerPool::new(
            Box::new(Loopback {
                opts: WorkerOptions::default(),
            }),
            PoolOptions::new(2, InitSpec::default()),
            Arc::new(LinearCost),
            Telemetry::disabled(),
        );
        let retry = RetryPolicy::immediate(1);
        // Spawn and handshake happen in the first batch; time the rest.
        let cfgs = configs(&space, &[5, 2, 7]);
        let tasks: Vec<&Configuration> = cfgs.iter().collect();
        assert_matches_local(
            &pool.eval_batch(&space, &tasks, 0, &retry),
            &tasks,
            &space,
            0,
            &retry,
        );
        let started = Instant::now();
        for round in 0..100u16 {
            let cfgs = configs(&space, &[round % 8, (round + 3) % 8, (round * 5) % 8]);
            let tasks: Vec<&Configuration> = cfgs.iter().collect();
            let instance = usize::from(round % 3);
            let got = pool.eval_batch(&space, &tasks, instance, &retry);
            assert_matches_local(&got, &tasks, &space, instance, &retry);
        }
        let wall = started.elapsed();
        assert!(
            wall < Duration::from_secs(1),
            "100 batches of 3 tasks took {wall:?}"
        );
    }

    #[test]
    fn a_worker_killed_with_two_requests_in_flight_has_both_requeued() {
        let telemetry = Telemetry::in_memory();
        // One slot, so both tasks go to the doomed worker together.
        let pool = WorkerPool::new(
            Box::new(KillFirst {
                launches: std::sync::atomic::AtomicUsize::new(0),
            }),
            PoolOptions::new(1, InitSpec::default()),
            Arc::new(LinearCost),
            telemetry.clone(),
        );
        let space = space();
        let cfgs = configs(&space, &[6, 1]);
        let tasks: Vec<&Configuration> = cfgs.iter().collect();
        // Instance 3 fails transiently every time: both outcomes are
        // escalations whose retry counts must equal the local path's.
        let retry = RetryPolicy::immediate(3);
        let got = pool.eval_batch(&space, &tasks, 3, &retry);
        assert_matches_local(&got, &tasks, &space, 3, &retry);
        assert!(got.iter().all(|(r, retries)| r.is_err() && *retries == 2));
        assert_eq!(telemetry.counter("dist.redispatched").get(), 2);
        assert_eq!(telemetry.counter("dist.dispatched").get(), 2);
        assert_eq!(telemetry.counter("dist.local_fallback").get(), 0);
        let journal = telemetry.lines();
        let count = |ev: &str| journal.iter().filter(|l| l.contains(ev)).count();
        assert_eq!(count("\"ev\":\"worker_failed\""), 1, "{journal:#?}");
        assert_eq!(count("\"ev\":\"worker_spawned\""), 2, "respawned once");
        assert_eq!(count("\"ev\":\"worker_quarantined\""), 0);
    }

    #[test]
    fn a_queued_request_waits_out_its_predecessor_before_its_deadline_starts() {
        // 150 ms per evaluation against a 250 ms deadline: every request
        // is answered within 250 ms of the worker being able to start
        // it, but the second of a pipelined pair is answered ~300 ms
        // after its send. Timing it from the send would kill a healthy
        // worker.
        let telemetry = Telemetry::in_memory();
        let pool = WorkerPool::new(
            Box::new(Slow(Duration::from_millis(150))),
            PoolOptions {
                request_timeout: Duration::from_millis(250),
                ..PoolOptions::new(1, InitSpec::default())
            },
            Arc::new(LinearCost),
            telemetry.clone(),
        );
        let space = space();
        let cfgs = configs(&space, &[2, 4, 6]);
        let tasks: Vec<&Configuration> = cfgs.iter().collect();
        let retry = RetryPolicy::immediate(1);
        let got = pool.eval_batch(&space, &tasks, 1, &retry);
        assert_matches_local(&got, &tasks, &space, 1, &retry);
        assert_eq!(telemetry.counter("dist.dispatched").get(), 3);
        let journal = telemetry.lines();
        assert!(
            !journal
                .iter()
                .any(|l| l.contains("\"ev\":\"worker_failed\"")),
            "{journal:#?}"
        );
    }

    #[test]
    fn a_hung_worker_times_out_and_its_requests_run_locally() {
        let telemetry = Telemetry::in_memory();
        let pool = WorkerPool::new(
            Box::new(Slow(Duration::from_secs(30))),
            PoolOptions {
                request_timeout: Duration::from_millis(100),
                max_failures: 1,
                ..PoolOptions::new(1, InitSpec::default())
            },
            Arc::new(LinearCost),
            telemetry.clone(),
        );
        let space = space();
        let cfgs = configs(&space, &[7, 0, 3]);
        let tasks: Vec<&Configuration> = cfgs.iter().collect();
        let retry = RetryPolicy::immediate(1);
        let started = Instant::now();
        let got = pool.eval_batch(&space, &tasks, 2, &retry);
        assert!(started.elapsed() < Duration::from_secs(10), "hung batch");
        assert_matches_local(&got, &tasks, &space, 2, &retry);
        assert_eq!(telemetry.counter("dist.redispatched").get(), 2);
        assert_eq!(telemetry.counter("dist.local_fallback").get(), 3);
        let journal = telemetry.lines();
        assert!(
            journal
                .iter()
                .any(|l| l.contains("\"ev\":\"worker_failed\"") && l.contains("request timed out")),
            "{journal:#?}"
        );
    }

    #[test]
    fn a_late_reply_from_a_killed_worker_is_not_taken_for_its_replacements() {
        // The first worker times out at 100 ms and is replaced, but still
        // answers at 400 ms on the connection the pool gave up on. That
        // frame must be dropped, not charged to the replacement.
        let telemetry = Telemetry::in_memory();
        let pool = WorkerPool::new(
            Box::new(SlowFirst {
                launches: std::sync::atomic::AtomicUsize::new(0),
            }),
            PoolOptions {
                request_timeout: Duration::from_millis(100),
                ..PoolOptions::new(1, InitSpec::default())
            },
            Arc::new(LinearCost),
            telemetry.clone(),
        );
        let space = space();
        let cfgs = configs(&space, &[1, 5]);
        let tasks: Vec<&Configuration> = cfgs.iter().collect();
        let retry = RetryPolicy::immediate(1);
        let got = pool.eval_batch(&space, &tasks, 0, &retry);
        assert_matches_local(&got, &tasks, &space, 0, &retry);
        // Let the late reply land, then make the pool read it.
        std::thread::sleep(Duration::from_millis(500));
        let got = pool.eval_batch(&space, &tasks, 1, &retry);
        assert_matches_local(&got, &tasks, &space, 1, &retry);
        let journal = telemetry.lines();
        let failed: Vec<&String> = journal
            .iter()
            .filter(|l| l.contains("\"ev\":\"worker_failed\""))
            .collect();
        assert_eq!(failed.len(), 1, "{failed:#?}");
        assert!(failed[0].contains("request timed out"), "{failed:#?}");
    }

    #[test]
    fn remote_evaluations_are_journaled_like_local_ones() {
        let telemetry = Telemetry::in_memory();
        let pool = WorkerPool::new(
            Box::new(Loopback {
                opts: WorkerOptions::default(),
            }),
            PoolOptions {
                workloads: vec!["MD".to_string(), "MC".to_string()],
                ..PoolOptions::new(2, InitSpec::default())
            },
            Arc::new(LinearCost),
            telemetry.clone(),
        );
        let space = space();
        let cfgs = configs(&space, &[0, 3, 4]);
        let tasks: Vec<&Configuration> = cfgs.iter().collect();
        let retry = RetryPolicy::immediate(1);
        pool.eval_batch(&space, &tasks, 1, &retry);
        // Failed evaluations journal no `evaluation` event, as in-process.
        pool.eval_batch(&space, &tasks, 3, &retry);
        let evals: Vec<String> = telemetry
            .lines()
            .into_iter()
            .filter(|l| l.contains("\"ev\":\"evaluation\""))
            .collect();
        assert_eq!(evals.len(), 3, "{evals:#?}");
        assert!(evals.iter().all(|l| l.contains("\"workload\":\"MC\"")));
    }

    #[test]
    fn dying_workers_are_redispatched_then_quarantined() {
        let telemetry = Telemetry::in_memory();
        // Both slots die on their first eval request, every time they
        // are respawned: after max_failures each is quarantined and the
        // batch must finish through the local fallback.
        let pool = WorkerPool::new(
            Box::new(Loopback {
                opts: WorkerOptions {
                    exit_after: Some(1),
                    only_worker: None,
                },
            }),
            PoolOptions {
                max_failures: 2,
                ..PoolOptions::new(2, InitSpec::default())
            },
            Arc::new(LinearCost),
            telemetry.clone(),
        );
        let space = space();
        let cfgs = configs(&space, &[3, 6, 1]);
        let tasks: Vec<&Configuration> = cfgs.iter().collect();
        let got = pool.eval_batch(&space, &tasks, 0, &RetryPolicy::immediate(1));
        for (slot, (result, _)) in got.iter().enumerate() {
            let expect = eval_with_retry(
                &LinearCost,
                tasks[slot],
                &space,
                0,
                &RetryPolicy::immediate(1),
            );
            assert_eq!(result.clone().map(f64::to_bits), expect.0.map(f64::to_bits));
        }
        let journal = telemetry.lines();
        let failed = journal
            .iter()
            .filter(|l| l.contains("\"ev\":\"worker_failed\""))
            .count();
        let quarantined = journal
            .iter()
            .filter(|l| l.contains("\"ev\":\"worker_quarantined\""))
            .count();
        assert!(failed >= 4, "expected >= 4 worker failures, saw {failed}");
        assert_eq!(quarantined, 2, "both slots quarantine");
    }

    #[test]
    fn workers_are_sent_the_pools_latency_estimates() {
        let est = LatencyEstimates {
            l1d: 3,
            l2: 23,
            dram: 171,
        };
        for estimates in [Some(est), None] {
            let (tx, rx) = mpsc::channel();
            let pool = WorkerPool::new(
                Box::new(Recording(tx)),
                PoolOptions {
                    estimates,
                    ..PoolOptions::new(2, InitSpec::default())
                },
                Arc::new(LinearCost),
                Telemetry::disabled(),
            );
            let space = space();
            let cfgs = configs(&space, &[1, 6]);
            let tasks: Vec<&Configuration> = cfgs.iter().collect();
            pool.eval_batch(&space, &tasks, 0, &RetryPolicy::immediate(1));
            drop(pool);
            let seen: Vec<_> = rx.iter().collect();
            assert_eq!(seen, vec![estimates; 2]);
        }
    }

    #[test]
    fn stillborn_workers_fall_back_to_local_evaluation() {
        let pool = WorkerPool::new(
            Box::new(Stillborn),
            PoolOptions {
                max_failures: 1,
                ..PoolOptions::new(2, InitSpec::default())
            },
            Arc::new(LinearCost),
            Telemetry::disabled(),
        );
        let space = space();
        let cfgs = configs(&space, &[0, 7]);
        let tasks: Vec<&Configuration> = cfgs.iter().collect();
        let got = pool.eval_batch(&space, &tasks, 1, &RetryPolicy::immediate(1));
        assert_eq!(got.len(), 2);
        assert!(got.iter().all(|(r, _)| r.is_ok()));
    }
}
