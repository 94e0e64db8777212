//! The outside-in layer ledger: decorators the benchmark owns around
//! the program's public seams, and the span buffer they write into.
//!
//! Nothing here reaches inside a crate. [`TracedPlanner`] wraps the
//! `Planner` trait object a service is built with, [`TracedOracle`]
//! wraps the `DistanceOracle` handed to it, and the replay loops in
//! `workload.rs` open the `simulator.submit` / `server.tick` spans
//! around the public calls they make. Everything runs on the one
//! benchmark thread (planner width 1, shard fan-out width 1), so the
//! ledger is a thread-local: no locks, no atomics on the hot path.
//!
//! Spans go into a buffer sized before the replay starts. The root span
//! is one fed event (Chengdu) or one tick's batch of fed events
//! (metropolis); its child is `simulator.submit` or `server.tick`,
//! whose children are `core.plan` callbacks. Oracle calls are not spans:
//! each is folded into the innermost open span as a count and a time.
//! A span's self time is its duration minus the durations of its direct
//! children, which are sequential and nested inside it.

use std::cell::RefCell;
use std::io::Write;
use std::sync::Arc;
use std::time::Instant;

use road_network::geo::Point;
use road_network::graph::RoadNetwork;
use road_network::hub_labels::HubLabels;
use road_network::oracle::DistanceOracle;
use road_network::{Cost, VertexId};
use urpsm_core::event::WorkerChange;
use urpsm_core::planner::{Planner, PlannerReplies};
use urpsm_core::platform::PlatformState;
use urpsm_core::types::{Request, RequestId, Time};

/// The span kinds, one per layer boundary the benchmark can see.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum Kind {
    /// One fed event (or one tick's batch): the benchmark's own loop.
    Feed = 0,
    /// `MobilityService::submit`.
    Submit = 1,
    /// `IngestServer::tick`.
    Tick = 2,
    /// One `Planner` callback.
    Plan = 3,
}

const KINDS: usize = 4;

impl Kind {
    /// The layer name used in the metric names.
    pub fn name(self) -> &'static str {
        match self {
            Kind::Feed => "workloads.feed",
            Kind::Submit => "simulator.submit",
            Kind::Tick => "server.tick",
            Kind::Plan => "core.plan",
        }
    }
}

/// One recorded span. Times are nanoseconds since the replay started.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub kind: Kind,
    /// Index of the parent span, `u32::MAX` for a root.
    pub parent: u32,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Oracle calls folded into this span (`dis` + `shortest_path`).
    pub rn_calls: u32,
    /// Time spent inside those calls.
    pub rn_ns: u64,
    /// Allocations made while the span was open (children included).
    pub allocs: u64,
}

/// Deterministic oracle-call counts, split by who issued them: the
/// planner (inside a `Planner` callback) or everything else — worker
/// motion, cancellation surgery, the dispatch plane's borrow probes.
#[derive(Debug, Clone, Copy, Default)]
pub struct OracleCounts {
    pub plan_dis: u64,
    pub plan_path: u64,
    pub plan_euc: u64,
    pub motion_dis: u64,
    pub motion_path: u64,
    pub motion_euc: u64,
    /// Wall time inside `dis` / `shortest_path`, all issuers.
    pub dis_ns: u64,
    pub path_ns: u64,
}

/// Per-shard planner load, indexed by the shard id the planner was
/// built for.
#[derive(Debug, Clone, Copy, Default)]
pub struct ShardLoad {
    pub calls: u64,
    pub ns: u64,
}

struct Ledger {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<u32>,
    in_plan: bool,
    counts: OracleCounts,
    shards: Vec<ShardLoad>,
    /// `on_request` latencies, nanoseconds.
    plan_request_ns: Vec<u64>,
}

thread_local! {
    static LEDGER: RefCell<Ledger> = RefCell::new(Ledger {
        on: false,
        epoch: Instant::now(),
        spans: Vec::new(),
        stack: Vec::with_capacity(8),
        in_plan: false,
        counts: OracleCounts::default(),
        shards: Vec::new(),
        plan_request_ns: Vec::new(),
    });
}

/// Allocation count so far (the bench crate's counting allocator is
/// installed only in the traced build).
#[inline]
fn allocations() -> u64 {
    #[cfg(feature = "traced")]
    {
        urpsm_bench::alloc_track::allocations()
    }
    #[cfg(not(feature = "traced"))]
    {
        0
    }
}

/// Clears the ledger and sizes its buffers for a replay of about
/// `events` events over `shards` shards; spans are recorded from now
/// until [`stop`].
pub fn start(events: usize, shards: usize) {
    LEDGER.with(|l| {
        let mut l = l.borrow_mut();
        l.spans.clear();
        l.spans.reserve(events * 4 + 1024);
        l.plan_request_ns.clear();
        l.plan_request_ns.reserve(events + 1024);
        l.stack.clear();
        l.in_plan = false;
        l.counts = OracleCounts::default();
        l.shards = vec![ShardLoad::default(); shards.max(1)];
        l.epoch = Instant::now();
        l.on = true;
    });
}

/// Stops recording; counts and spans stay readable.
pub fn stop() {
    LEDGER.with(|l| l.borrow_mut().on = false);
}

/// Opens a span of `kind` under the innermost open span.
#[inline]
pub fn enter(kind: Kind) {
    LEDGER.with(|l| {
        let mut l = l.borrow_mut();
        if !l.on {
            return;
        }
        let parent = l.stack.last().copied().unwrap_or(u32::MAX);
        let idx = l.spans.len() as u32;
        let start_ns = l.epoch.elapsed().as_nanos() as u64;
        l.spans.push(Span {
            kind,
            parent,
            start_ns,
            end_ns: start_ns,
            rn_calls: 0,
            rn_ns: 0,
            allocs: allocations(),
        });
        l.stack.push(idx);
    });
}

/// Closes the innermost open span and returns its duration in ns.
#[inline]
pub fn exit() -> u64 {
    LEDGER.with(|l| {
        let mut l = l.borrow_mut();
        let Some(idx) = l.stack.pop() else {
            return 0;
        };
        let end_ns = l.epoch.elapsed().as_nanos() as u64;
        let allocs = allocations();
        let s = &mut l.spans[idx as usize];
        s.end_ns = end_ns;
        s.allocs = allocs - s.allocs;
        end_ns - s.start_ns
    })
}

/// Snapshot of the oracle counts.
pub fn counts() -> OracleCounts {
    LEDGER.with(|l| l.borrow().counts)
}

/// Per-shard planner load.
pub fn shard_loads() -> Vec<ShardLoad> {
    LEDGER.with(|l| l.borrow().shards.clone())
}

/// `on_request` latencies of the replay, nanoseconds.
pub fn plan_request_ns() -> Vec<u64> {
    LEDGER.with(|l| l.borrow().plan_request_ns.clone())
}

/// The recorded spans.
pub fn spans() -> Vec<Span> {
    LEDGER.with(|l| l.borrow().spans.clone())
}

/// Per-kind totals over a replay's spans.
#[derive(Debug, Clone, Copy, Default)]
pub struct KindTotals {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
    pub self_allocs: u64,
}

/// Folds spans into per-kind totals: self time and self allocations
/// subtract each span's direct children.
pub fn fold(spans: &[Span]) -> [KindTotals; KINDS] {
    let mut out = [KindTotals::default(); KINDS];
    let mut child_ns = vec![0u64; spans.len()];
    let mut child_allocs = vec![0u64; spans.len()];
    for s in spans {
        if s.parent != u32::MAX {
            child_ns[s.parent as usize] += s.end_ns - s.start_ns;
            child_allocs[s.parent as usize] += s.allocs;
        }
    }
    for (i, s) in spans.iter().enumerate() {
        let t = &mut out[s.kind as usize];
        let dur = s.end_ns - s.start_ns;
        t.count += 1;
        t.total_ns += dur;
        t.self_ns += dur.saturating_sub(child_ns[i]);
        t.self_allocs += s.allocs.saturating_sub(child_allocs[i]);
    }
    out
}

/// Writes the spans as JSON lines (one object per span).
pub fn write_spans(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    for (i, s) in spans.iter().enumerate() {
        let parent = if s.parent == u32::MAX {
            -1
        } else {
            i64::from(s.parent)
        };
        writeln!(
            w,
            "{{\"id\":{i},\"parent\":{parent},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\
             \"rn_calls\":{},\"rn_ns\":{},\"allocs\":{}}}",
            s.kind.name(),
            s.start_ns,
            s.end_ns,
            s.rn_calls,
            s.rn_ns,
            s.allocs
        )?;
    }
    w.flush()
}

#[derive(Clone, Copy)]
enum Query {
    Dis,
    Path,
}

#[inline]
fn fold_query(q: Query, ns: u64) {
    LEDGER.with(|l| {
        let mut l = l.borrow_mut();
        let plan = l.in_plan;
        let c = &mut l.counts;
        match (q, plan) {
            (Query::Dis, true) => c.plan_dis += 1,
            (Query::Dis, false) => c.motion_dis += 1,
            (Query::Path, true) => c.plan_path += 1,
            (Query::Path, false) => c.motion_path += 1,
        }
        match q {
            Query::Dis => c.dis_ns += ns,
            Query::Path => c.path_ns += ns,
        }
        if let Some(&top) = l.stack.last() {
            let s = &mut l.spans[top as usize];
            s.rn_calls += 1;
            s.rn_ns += ns;
        }
    });
}

/// The `DistanceOracle` decorator: counts every query by issuer and
/// times `dis` / `shortest_path`, folding the time into the open span.
pub struct TracedOracle {
    inner: Arc<dyn DistanceOracle>,
}

impl TracedOracle {
    pub fn new(inner: Arc<dyn DistanceOracle>) -> Self {
        TracedOracle { inner }
    }
}

impl DistanceOracle for TracedOracle {
    fn num_vertices(&self) -> usize {
        self.inner.num_vertices()
    }

    fn point(&self, v: VertexId) -> Point {
        self.inner.point(v)
    }

    fn top_speed_mps(&self) -> f64 {
        self.inner.top_speed_mps()
    }

    fn dis(&self, u: VertexId, v: VertexId) -> Cost {
        let t0 = Instant::now();
        let d = self.inner.dis(u, v);
        fold_query(Query::Dis, t0.elapsed().as_nanos() as u64);
        d
    }

    fn shortest_path(&self, u: VertexId, v: VertexId) -> Option<Vec<VertexId>> {
        let t0 = Instant::now();
        let p = self.inner.shortest_path(u, v);
        fold_query(Query::Path, t0.elapsed().as_nanos() as u64);
        p
    }

    fn euc(&self, u: VertexId, v: VertexId) -> Cost {
        // Coordinate math: counted, not timed (two clock reads would
        // cost more than the call).
        LEDGER.with(|l| {
            let mut l = l.borrow_mut();
            if l.in_plan {
                l.counts.plan_euc += 1;
            } else {
                l.counts.motion_euc += 1;
            }
        });
        self.inner.euc(u, v)
    }

    fn backing_network(&self) -> Option<&Arc<RoadNetwork>> {
        self.inner.backing_network()
    }

    fn backing_labels(&self) -> Option<&Arc<HubLabels>> {
        self.inner.backing_labels()
    }
}

/// The `Planner` decorator: every callback is a `core.plan` span, and
/// oracle calls made while it is open count as planner-issued.
pub struct TracedPlanner<'p> {
    inner: Box<dyn Planner + 'p>,
    shard: usize,
}

impl<'p> TracedPlanner<'p> {
    pub fn new(inner: Box<dyn Planner + 'p>, shard: usize) -> Self {
        TracedPlanner { inner, shard }
    }

    #[inline]
    fn around<R>(&mut self, request: bool, f: impl FnOnce(&mut Box<dyn Planner + 'p>) -> R) -> R {
        enter(Kind::Plan);
        LEDGER.with(|l| l.borrow_mut().in_plan = true);
        let out = f(&mut self.inner);
        LEDGER.with(|l| l.borrow_mut().in_plan = false);
        let ns = exit();
        let shard = self.shard;
        LEDGER.with(|l| {
            let mut l = l.borrow_mut();
            if !l.on {
                return;
            }
            if request {
                l.plan_request_ns.push(ns);
            }
            if let Some(s) = l.shards.get_mut(shard) {
                s.calls += 1;
                s.ns += ns;
            }
        });
        out
    }
}

impl Planner for TracedPlanner<'_> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn on_request(&mut self, state: &mut PlatformState, r: &Request) -> PlannerReplies {
        self.around(true, |p| p.on_request(state, r))
    }

    fn on_time(&mut self, state: &mut PlatformState, now: Time) -> PlannerReplies {
        self.around(false, |p| p.on_time(state, now))
    }

    fn flush(&mut self, state: &mut PlatformState) -> PlannerReplies {
        self.around(false, |p| p.flush(state))
    }

    fn next_wakeup(&self) -> Option<Time> {
        self.inner.next_wakeup()
    }

    fn on_cancel(&mut self, state: &mut PlatformState, r: RequestId) -> bool {
        self.around(false, |p| p.on_cancel(state, r))
    }

    fn on_worker_change(&mut self, state: &mut PlatformState, change: WorkerChange) {
        self.around(false, |p| p.on_worker_change(state, change))
    }

    fn set_threads(&mut self, threads: usize) {
        self.inner.set_threads(threads)
    }
}
