//! Hierarchical span-based self-profiler.
//!
//! Answers "where does a campaign's wall time go?" without slowing the
//! campaign down when nobody is asking. The design mirrors the metrics
//! registry: a [`Profiler`] handle is either enabled (an `Arc` to a
//! shared phase tree) or disabled (every operation a branch on `None`,
//! no clock reads, no allocation), so instrumentation stays in place
//! permanently.
//!
//! Phases are keyed by `&'static str` names and accumulate into a tree:
//! each node records an invocation count, total wall time, and optional
//! per-phase instruction / simulated-cycle attribution. Self time
//! (total minus children) is derived at snapshot time.
//!
//! Two instrumentation styles share the tree:
//!
//! * [`Span`] — RAII scope from [`Profiler::enter`]. Nesting is dynamic,
//!   via a thread-local stack: a span opened while another span on the
//!   same thread is live becomes its child. Right for coarse phases
//!   (tuner iterations, racing stages) where a few nanoseconds of
//!   bookkeeping do not matter. Spans must be dropped on the thread
//!   that opened them.
//! * [`PhaseTimer`] — a pre-resolved node handle for hot loops. The
//!   tree position is fixed at construction ([`Profiler::timer`] /
//!   [`PhaseTimer::child`]); recording is a couple of relaxed atomic
//!   adds with no lock and no thread-local access, so the simulator
//!   inner loop can feed chunked timings at full speed.
//!
//! ```
//! use racesim_telemetry::Profiler;
//!
//! let prof = Profiler::enabled();
//! {
//!     let _run = prof.enter("run");
//!     let fetch = prof.timer("run").child("fetch");
//!     fetch.record_ns(1_000);
//!     fetch.add_insts(64);
//! }
//! let snap = prof.snapshot();
//! assert_eq!(snap.roots[0].name, "run");
//! assert_eq!(snap.roots[0].children[0].insts, 64);
//!
//! let off = Profiler::disabled();
//! let _s = off.enter("run"); // no-op: no clock read, no allocation
//! ```

use crate::json::Value;
use parking_lot::Mutex;
use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Per-node accumulators. All relaxed atomics: phases are reported in
/// aggregate after the run, not read concurrently with precision.
#[derive(Debug, Default)]
struct NodeStats {
    count: AtomicU64,
    total_ns: AtomicU64,
    insts: AtomicU64,
    cycles: AtomicU64,
}

impl NodeStats {
    #[inline]
    fn add(&self, count: u64, ns: u64) {
        self.count.fetch_add(count, Ordering::Relaxed);
        self.total_ns.fetch_add(ns, Ordering::Relaxed);
    }
}

/// One node of the phase tree. Children are ordered by first
/// registration, which makes snapshots deterministic for a fixed
/// instrumentation order.
#[derive(Debug)]
struct Node {
    name: &'static str,
    children: Vec<usize>,
    stats: Arc<NodeStats>,
}

/// Shared tree behind an enabled profiler. Node creation takes the
/// lock; recording into an already-resolved node does not.
#[derive(Debug, Default)]
struct ProfCore {
    /// Index 0..: all nodes; `roots` indexes the parentless ones.
    nodes: Mutex<Tree>,
}

#[derive(Debug, Default)]
struct Tree {
    nodes: Vec<Node>,
    roots: Vec<usize>,
}

impl ProfCore {
    /// Finds or creates the child `name` under `parent` (`None` = root).
    fn resolve(&self, parent: Option<usize>, name: &'static str) -> (usize, Arc<NodeStats>) {
        let mut tree = self.nodes.lock();
        let siblings: &[usize] = match parent {
            Some(p) => &tree.nodes[p].children,
            None => &tree.roots,
        };
        if let Some(&idx) = siblings.iter().find(|&&idx| tree.nodes[idx].name == name) {
            return (idx, Arc::clone(&tree.nodes[idx].stats));
        }
        let idx = tree.nodes.len();
        tree.nodes.push(Node {
            name,
            children: Vec::new(),
            stats: Arc::new(NodeStats::default()),
        });
        match parent {
            Some(p) => tree.nodes[p].children.push(idx),
            None => tree.roots.push(idx),
        }
        (idx, Arc::clone(&tree.nodes[idx].stats))
    }

    fn snapshot(&self) -> ProfileSnapshot {
        let tree = self.nodes.lock();
        fn build(tree: &Tree, idx: usize) -> PhaseNode {
            let node = &tree.nodes[idx];
            let children: Vec<PhaseNode> = node.children.iter().map(|&c| build(tree, c)).collect();
            let recorded_ns = node.stats.total_ns.load(Ordering::Relaxed);
            let child_ns: u64 = children.iter().map(|c| c.total_ns).sum();
            // Container phases (e.g. a "mem" grouping whose children do
            // all the recording) roll up to their children's total.
            let total_ns = recorded_ns.max(child_ns);
            PhaseNode {
                name: node.name.to_string(),
                count: node.stats.count.load(Ordering::Relaxed),
                total_ns,
                self_ns: total_ns.saturating_sub(child_ns),
                insts: node.stats.insts.load(Ordering::Relaxed),
                cycles: node.stats.cycles.load(Ordering::Relaxed),
                children,
            }
        }
        ProfileSnapshot {
            roots: tree.roots.iter().map(|&r| build(&tree, r)).collect(),
        }
    }
}

thread_local! {
    /// Stack of (profiler identity, node index) for dynamic Span
    /// nesting. Tagged with the owning `ProfCore`'s address so spans
    /// from distinct profilers on one thread do not adopt each other.
    static SPAN_STACK: RefCell<Vec<(usize, usize)>> = const { RefCell::new(Vec::new()) };
}

/// A cloneable profiler handle: either enabled (shared phase tree) or
/// disabled (every operation a no-op).
#[derive(Debug, Clone, Default)]
pub struct Profiler {
    inner: Option<Arc<ProfCore>>,
}

impl Profiler {
    /// The no-op handle. Spans it returns never read the clock and
    /// timers it returns never touch memory.
    pub fn disabled() -> Profiler {
        Profiler { inner: None }
    }

    /// An enabled handle with an empty phase tree.
    pub fn enabled() -> Profiler {
        Profiler {
            inner: Some(Arc::new(ProfCore::default())),
        }
    }

    /// Whether this handle records anything.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Opens a span named `name`, nested under the innermost live span
    /// on this thread (from this profiler), and starts its clock. The
    /// span records itself when dropped; drop it on this thread.
    pub fn enter(&self, name: &'static str) -> Span {
        let Some(core) = &self.inner else {
            return Span { inner: None };
        };
        let id = Arc::as_ptr(core) as usize;
        let parent = SPAN_STACK.with(|s| {
            s.borrow()
                .last()
                .filter(|(owner, _)| *owner == id)
                .map(|(_, node)| *node)
        });
        let (node, stats) = core.resolve(parent, name);
        SPAN_STACK.with(|s| s.borrow_mut().push((id, node)));
        Span {
            inner: Some(SpanInner {
                core: Arc::clone(core),
                node,
                stats,
                t0: Instant::now(),
            }),
        }
    }

    /// Resolves the root phase `name` into a [`PhaseTimer`]. Unlike
    /// [`Profiler::enter`], the position in the tree is fixed here, not
    /// by runtime nesting.
    pub fn timer(&self, name: &'static str) -> PhaseTimer {
        let Some(core) = &self.inner else {
            return PhaseTimer { inner: None };
        };
        let (node, stats) = core.resolve(None, name);
        PhaseTimer {
            inner: Some(TimerInner {
                core: Arc::clone(core),
                node,
                stats,
            }),
        }
    }

    /// A point-in-time copy of the phase tree (empty when disabled).
    pub fn snapshot(&self) -> ProfileSnapshot {
        self.inner
            .as_ref()
            .map_or_else(ProfileSnapshot::default, |c| c.snapshot())
    }
}

#[derive(Debug)]
struct SpanInner {
    core: Arc<ProfCore>,
    node: usize,
    stats: Arc<NodeStats>,
    t0: Instant,
}

/// An RAII phase scope from [`Profiler::enter`]. Dropping it adds the
/// elapsed wall time to its node and closes the nesting scope.
#[derive(Debug)]
#[must_use = "a span records on drop; binding it to _ drops it immediately"]
pub struct Span {
    inner: Option<SpanInner>,
}

impl Span {
    /// Attributes `n` retired instructions to this span's phase.
    pub fn add_insts(&self, n: u64) {
        if let Some(i) = &self.inner {
            i.stats.insts.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Attributes `n` simulated cycles to this span's phase.
    pub fn add_cycles(&self, n: u64) {
        if let Some(i) = &self.inner {
            i.stats.cycles.fetch_add(n, Ordering::Relaxed);
        }
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if let Some(i) = self.inner.take() {
            let ns = i.t0.elapsed().as_nanos() as u64;
            i.stats.add(1, ns);
            let id = Arc::as_ptr(&i.core) as usize;
            SPAN_STACK.with(|s| {
                let mut stack = s.borrow_mut();
                // Out-of-order drops (a span outliving a later sibling)
                // still unwind correctly: remove this entry wherever it
                // sits rather than blindly popping.
                if let Some(pos) = stack.iter().rposition(|&e| e == (id, i.node)) {
                    stack.remove(pos);
                }
            });
        }
    }
}

#[derive(Debug, Clone)]
struct TimerInner {
    core: Arc<ProfCore>,
    node: usize,
    stats: Arc<NodeStats>,
}

/// A pre-resolved phase handle for hot loops: recording is lock-free
/// and does not consult the thread-local span stack. Cloning shares the
/// node. Obtained from [`Profiler::timer`] or [`PhaseTimer::child`].
#[derive(Debug, Clone, Default)]
pub struct PhaseTimer {
    inner: Option<TimerInner>,
}

impl PhaseTimer {
    /// Whether recording into this timer does anything.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Resolves (or creates) the child phase `name` under this timer.
    pub fn child(&self, name: &'static str) -> PhaseTimer {
        let Some(i) = &self.inner else {
            return PhaseTimer { inner: None };
        };
        let (node, stats) = i.core.resolve(Some(i.node), name);
        PhaseTimer {
            inner: Some(TimerInner {
                core: Arc::clone(&i.core),
                node,
                stats,
            }),
        }
    }

    /// Records one invocation lasting `ns` nanoseconds.
    #[inline]
    pub fn record_ns(&self, ns: u64) {
        if let Some(i) = &self.inner {
            i.stats.add(1, ns);
        }
    }

    /// Records `count` invocations totalling `ns` nanoseconds.
    #[inline]
    pub fn add(&self, count: u64, ns: u64) {
        if let Some(i) = &self.inner {
            i.stats.add(count, ns);
        }
    }

    /// Attributes `n` retired instructions to this phase.
    #[inline]
    pub fn add_insts(&self, n: u64) {
        if let Some(i) = &self.inner {
            i.stats.insts.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Attributes `n` simulated cycles to this phase.
    #[inline]
    pub fn add_cycles(&self, n: u64) {
        if let Some(i) = &self.inner {
            i.stats.cycles.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Times a closure and records it as one invocation.
    pub fn time<T>(&self, f: impl FnOnce() -> T) -> T {
        match &self.inner {
            Some(i) => {
                let t0 = Instant::now();
                let out = f();
                i.stats.add(1, t0.elapsed().as_nanos() as u64);
                out
            }
            None => f(),
        }
    }
}

// PhaseTimer recording never touches the span stack, so sharing across
// worker threads is sound; the tree itself is Mutex + atomics.
// (Send/Sync derive automatically from the field types; these asserts
// keep that property from regressing silently.)
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<PhaseTimer>();
    assert_send_sync::<Profiler>();
};

/// One phase of a [`ProfileSnapshot`]: aggregates plus children.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PhaseNode {
    /// Static phase name.
    pub name: String,
    /// Number of recorded invocations.
    pub count: u64,
    /// Total wall time, including children, in nanoseconds.
    pub total_ns: u64,
    /// Wall time not accounted to any child (total − Σ children).
    pub self_ns: u64,
    /// Retired instructions attributed to this phase.
    pub insts: u64,
    /// Simulated cycles attributed to this phase.
    pub cycles: u64,
    /// Child phases, in first-registration order.
    pub children: Vec<PhaseNode>,
}

/// A point-in-time copy of a profiler's phase tree, with renderers for
/// a text tree, stable JSON, and folded stacks (flamegraph input).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ProfileSnapshot {
    /// Top-level phases, in first-registration order.
    pub roots: Vec<PhaseNode>,
}

/// Renders nanoseconds with an adaptive unit, 3 significant-ish digits.
fn fmt_ns(ns: u64) -> String {
    if ns >= 1_000_000_000 {
        format!("{:.2}s", ns as f64 / 1e9)
    } else if ns >= 1_000_000 {
        format!("{:.2}ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.2}us", ns as f64 / 1e3)
    } else {
        format!("{ns}ns")
    }
}

impl ProfileSnapshot {
    /// Sum of root-phase total times: the profiled wall time.
    pub fn total_ns(&self) -> u64 {
        self.roots.iter().map(|r| r.total_ns).sum()
    }

    /// Looks up a phase by path from a root, e.g. `["simulate", "fetch"]`.
    pub fn find(&self, path: &[&str]) -> Option<&PhaseNode> {
        let mut nodes = &self.roots;
        let mut found = None;
        for name in path {
            found = nodes.iter().find(|n| n.name == *name)?.into();
            nodes = &found.as_ref().unwrap().children;
        }
        found
    }

    /// An indented text tree with per-phase share of the profiled total.
    pub fn render_text(&self) -> String {
        let total = self.total_ns().max(1);
        let mut out = String::new();
        out.push_str(&format!(
            "{:<38} {:>9} {:>10} {:>10} {:>6} {:>12} {:>12}\n",
            "phase", "count", "total", "self", "%", "insts", "cycles"
        ));
        fn walk(out: &mut String, node: &PhaseNode, depth: usize, total: u64) {
            let label = format!("{}{}", "  ".repeat(depth), node.name);
            let pct = 100.0 * node.total_ns as f64 / total as f64;
            out.push_str(&format!(
                "{:<38} {:>9} {:>10} {:>10} {:>5.1}% {:>12} {:>12}\n",
                label,
                node.count,
                fmt_ns(node.total_ns),
                fmt_ns(node.self_ns),
                pct,
                node.insts,
                node.cycles,
            ));
            for c in &node.children {
                walk(out, c, depth + 1, total);
            }
        }
        for r in &self.roots {
            walk(&mut out, r, 0, total);
        }
        out
    }

    /// A stable JSON document:
    /// `{"phases":[{"name","count","total_ns","self_ns","insts","cycles","children"},…]}`.
    /// Field set and order are a pinned interface (golden-tested).
    pub fn to_json(&self) -> Value {
        fn node(n: &PhaseNode) -> Value {
            Value::obj([
                ("name", n.name.as_str().into()),
                ("count", n.count.into()),
                ("total_ns", n.total_ns.into()),
                ("self_ns", n.self_ns.into()),
                ("insts", n.insts.into()),
                ("cycles", n.cycles.into()),
                ("children", Value::arr(n.children.iter().map(node))),
            ])
        }
        Value::obj([("phases", Value::arr(self.roots.iter().map(node)))])
    }

    /// Folded stacks ("root;child;leaf <self_ns>" per line), the input
    /// format of `flamegraph.pl` / `inferno-flamegraph`.
    pub fn render_folded(&self) -> String {
        fn walk(out: &mut String, prefix: &str, node: &PhaseNode) {
            let path = if prefix.is_empty() {
                node.name.clone()
            } else {
                format!("{prefix};{}", node.name)
            };
            if node.self_ns > 0 || node.children.is_empty() {
                out.push_str(&format!("{path} {}\n", node.self_ns));
            }
            for c in &node.children {
                walk(out, &path, c);
            }
        }
        let mut out = String::new();
        for r in &self.roots {
            walk(&mut out, "", r);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_profiler_is_inert() {
        let p = Profiler::disabled();
        assert!(!p.is_enabled());
        {
            let s = p.enter("run");
            s.add_insts(10);
            s.add_cycles(10);
        }
        let t = p.timer("run");
        assert!(!t.is_enabled());
        t.record_ns(100);
        t.add(5, 100);
        t.child("fetch").record_ns(1);
        assert_eq!(t.time(|| 42), 42);
        assert_eq!(p.snapshot(), ProfileSnapshot::default());
    }

    #[test]
    fn spans_nest_dynamically() {
        let p = Profiler::enabled();
        {
            let _outer = p.enter("tune");
            {
                let _inner = p.enter("iteration");
                let _leaf = p.enter("simulate");
            }
            let _again = p.enter("iteration");
        }
        let snap = p.snapshot();
        assert_eq!(snap.roots.len(), 1);
        let tune = &snap.roots[0];
        assert_eq!((tune.name.as_str(), tune.count), ("tune", 1));
        assert_eq!(tune.children.len(), 1);
        let iter = &tune.children[0];
        assert_eq!((iter.name.as_str(), iter.count), ("iteration", 2));
        assert_eq!(iter.children[0].name, "simulate");
        assert!(snap.find(&["tune", "iteration", "simulate"]).is_some());
        assert!(snap.find(&["tune", "simulate"]).is_none());
    }

    #[test]
    fn sibling_spans_do_not_nest() {
        let p = Profiler::enabled();
        {
            let _a = p.enter("a");
        }
        {
            let _b = p.enter("b");
        }
        assert_eq!(p.snapshot().roots.len(), 2);
    }

    #[test]
    fn out_of_order_span_drop_unwinds_cleanly() {
        let p = Profiler::enabled();
        let outer = p.enter("outer");
        let inner = p.enter("inner");
        drop(outer); // dropped before its child
        drop(inner);
        // A fresh span must still land at the root, not under a stale
        // stack entry.
        {
            let _c = p.enter("after");
        }
        let snap = p.snapshot();
        let names: Vec<&str> = snap.roots.iter().map(|r| r.name.as_str()).collect();
        assert!(names.contains(&"after"), "roots: {names:?}");
    }

    #[test]
    fn two_profilers_on_one_thread_stay_separate() {
        let a = Profiler::enabled();
        let b = Profiler::enabled();
        let _sa = a.enter("a_root");
        {
            let _sb = b.enter("b_root");
        }
        drop(_sa);
        assert!(a.snapshot().find(&["a_root", "b_root"]).is_none());
        assert_eq!(b.snapshot().roots[0].name, "b_root");
    }

    #[test]
    fn timers_accumulate_and_share_nodes() {
        let p = Profiler::enabled();
        let sim = p.timer("simulate");
        let fetch = sim.child("fetch");
        let fetch2 = p.timer("simulate").child("fetch");
        fetch.add(10, 1_000);
        fetch2.record_ns(500);
        fetch.add_insts(640);
        fetch.add_cycles(1280);
        sim.record_ns(2_000);
        let snap = p.snapshot();
        let f = snap.find(&["simulate", "fetch"]).unwrap();
        assert_eq!((f.count, f.total_ns), (11, 1_500));
        assert_eq!((f.insts, f.cycles), (640, 1_280));
        let s = snap.find(&["simulate"]).unwrap();
        assert_eq!(s.total_ns, 2_000);
        assert_eq!(s.self_ns, 500); // 2000 − child 1500
    }

    #[test]
    fn self_time_saturates_when_children_exceed_parent() {
        let p = Profiler::enabled();
        let root = p.timer("r");
        root.record_ns(10);
        root.child("c").record_ns(100);
        assert_eq!(p.snapshot().roots[0].self_ns, 0);
    }

    #[test]
    fn timers_record_across_threads() {
        let p = Profiler::enabled();
        let t = p.timer("simulate").child("eval");
        let mut handles = Vec::new();
        for _ in 0..4 {
            let t = t.clone();
            handles.push(std::thread::spawn(move || {
                for _ in 0..100 {
                    t.add(1, 10);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let e = p.snapshot().find(&["simulate", "eval"]).unwrap().clone();
        assert_eq!((e.count, e.total_ns), (400, 4_000));
    }

    #[test]
    fn renderers_are_deterministic_for_fixed_input() {
        let p = Profiler::enabled();
        let sim = p.timer("simulate");
        sim.add(2, 10_000_000);
        let f = sim.child("fetch");
        f.add(2, 3_000_000);
        f.add_insts(1000);
        sim.child("execute").add(2, 6_000_000);
        let snap = p.snapshot();
        let json = snap.to_json().to_string();
        assert_eq!(json, snap.to_json().to_string());
        assert!(json.starts_with("{\"phases\":[{\"name\":\"simulate\""));
        assert!(json.contains("\"total_ns\":3000000"));
        let folded = snap.render_folded();
        assert!(folded.contains("simulate;fetch 3000000\n"), "{folded}");
        assert!(folded.contains("simulate 1000000\n"), "{folded}");
        let text = snap.render_text();
        assert!(text.contains("simulate"));
        assert!(text.contains("3.00ms"));
    }

    #[test]
    fn fmt_ns_picks_units() {
        assert_eq!(fmt_ns(12), "12ns");
        assert_eq!(fmt_ns(1_500), "1.50us");
        assert_eq!(fmt_ns(2_250_000), "2.25ms");
        assert_eq!(fmt_ns(3_000_000_000), "3.00s");
    }
}
