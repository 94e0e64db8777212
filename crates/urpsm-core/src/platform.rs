//! The shared mutable world that planners operate on.
//!
//! [`PlatformState`] owns the workers, their routes, and the uniform
//! grid index over worker positions (Algo. 5 line 1 "build grid index").
//! Planners read candidate workers from it and commit insertions /
//! rejections through it; the simulator advances worker positions
//! through it. Keeping all mutation behind these methods maintains the
//! two URPSM constraints by construction:
//!
//! * **feasibility** — [`PlatformState::commit`] only splices plans that
//!   came out of an insertion operator, and debug builds re-validate the
//!   route after every commit;
//! * **invariability** — there is no API to un-reject a request, and a
//!   committed stop disappears only by being completed, by an explicit
//!   rider cancellation ([`PlatformState::cancel_request`]), or by a
//!   worker-departure reassignment ([`PlatformState::strip_unpicked`])
//!   — and the latter two refuse to touch a rider who is already
//!   onboard: once picked up, delivery is irrevocable.
//!
//! The API is split into two planes (DESIGN.md §5): every *read* —
//! [`PlatformState::candidate_workers`], [`PlatformState::agent`], the
//! decision phase — takes `&self` and is safe to run from many threads
//! at once ([`PlatformState`] is `Sync`); every *mutation* — commit,
//! reject, movement, lifecycle — takes `&mut self` and therefore has
//! the world to itself. [`FleetView`] is the read plane as a type: a
//! borrow-checked snapshot the decision and planning phases read.

use std::cell::RefCell;
use std::sync::Arc;

use road_network::congestion::TravelTimeProvider;
use road_network::fxhash::{FxHashMap, FxHashSet};
use road_network::grid::{GridIndex, SortedCellGrid};
use road_network::oracle::DistanceOracle;
use road_network::{Cost, VertexId};

use crate::objective::UnifiedCost;
use crate::route::{InsertionPlan, Route};
use crate::types::{
    ClassId, ClassTable, Request, RequestId, Stop, StopKind, Time, Worker, WorkerId,
};

/// A worker together with its live route and accounting.
#[derive(Debug, Clone)]
pub struct WorkerAgent {
    /// The static worker description.
    pub worker: Worker,
    /// The current route (already-passed stops are popped).
    pub route: Route,
    /// Σ of committed insertion deltas minus distance freed by
    /// cancellations — equals the final `D(S_w)` once the route is
    /// fully driven, since every insertion grows the planned distance
    /// by exactly its `Δ` and every removal shrinks it by the freed
    /// amount.
    pub assigned_distance: Cost,
    /// Requests assigned to this worker, in commit order (history —
    /// entries stay even if later cancelled or reassigned away).
    pub assigned_requests: Vec<RequestId>,
    /// Whether the worker still accepts new requests. Retired workers
    /// leave the grid indexes (never shortlisted again) but keep
    /// driving their committed stops.
    pub active: bool,
}

/// What happened to a cancellation, as reported by
/// [`PlatformState::cancel_request`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CancelOutcome {
    /// The request's pending stops were removed from `worker`'s route;
    /// `freed` planned distance was returned to the pool.
    Cancelled {
        /// The worker that was going to serve the request.
        worker: WorkerId,
        /// Planned distance freed by the removal.
        freed: Cost,
    },
    /// Too late: the rider/parcel is already onboard `worker` and will
    /// be delivered (the invariability constraint — a picked-up request
    /// cannot be dropped).
    Onboard {
        /// The worker carrying the request.
        worker: WorkerId,
    },
    /// The request was already fully served.
    Completed,
    /// The request had been rejected earlier; its penalty stands.
    WasRejected,
    /// The platform has no record of this request (never arrived, or
    /// still buffered inside a batch planner).
    Unknown,
}

/// Everything the receiving side of a worker handoff needs: the
/// worker's exact position and capacity at the moment it was exported
/// from its source platform ([`PlatformState::export_worker`]).
///
/// A ticket deliberately carries no accounting — only *idle* workers
/// can be exported, so the source platform keeps the worker's full
/// driven/planned history (it all happened there) and the destination
/// starts the worker from zero. Splitting a mid-route worker would
/// force one leg's distance to be split across two ledgers; refusing
/// to export such workers keeps both sides' `driven == planned`
/// invariants exact by construction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HandoffTicket {
    /// Where the worker is parked (its next platform adds it here).
    pub position: VertexId,
    /// The worker's capacity `K_w`.
    pub capacity: u32,
    /// The worker's vehicle class — class identity survives the
    /// handoff, so borrow probes on the receiving platform apply the
    /// same eligibility filter the home platform would have.
    pub class: ClassId,
}

/// Per-request outcome reported by planners.
///
/// `Default` is [`Outcome::Rejected`] — never observed as a value, it
/// only exists so `(RequestId, Outcome)` pairs can live inline in the
/// planners' allocation-free reply vector
/// ([`crate::planner::PlannerReplies`]).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// The request was inserted into `worker`'s route at cost `delta`.
    Assigned {
        /// The chosen worker.
        worker: WorkerId,
        /// The increased distance `Δ*`.
        delta: Cost,
    },
    /// The request was rejected (penalty `p_r` accrues).
    #[default]
    Rejected,
}

/// The platform: workers, routes, grid index and cost accounting.
pub struct PlatformState {
    now: Time,
    oracle: Arc<dyn DistanceOracle>,
    agents: Vec<WorkerAgent>,
    grid: GridIndex,
    /// T-Share's sorted-cell index, built on demand (only the `tshare`
    /// baseline pays its `O(C²)` memory — Fig. 5's memory panel).
    sorted_grid: Option<SortedCellGrid>,
    rejected: Vec<(RequestId, Cost)>,
    served: usize,
    /// Live request → worker map (entries removed on delivery,
    /// cancellation, or reassignment strip).
    assignment: FxHashMap<RequestId, WorkerId>,
    /// Requests fully delivered.
    completed: FxHashSet<RequestId>,
    /// Requests successfully cancelled after assignment.
    cancelled: Vec<RequestId>,
    /// Departure-time-aware travel times, installed into every route
    /// (present and future); `None` = free flow.
    congestion: Option<Arc<dyn TravelTimeProvider>>,
    /// The fleet's vehicle classes. The default single-class table
    /// makes every class hook a no-op — the paper's homogeneous
    /// setting, byte-identical to the pre-class platform.
    classes: Arc<ClassTable>,
}

/// Reusable storage for [`PlatformState::candidate_workers`], owned by
/// a planner and grown once to the fleet's high-water mark (the
/// allocation-free hot path of DESIGN.md §8). Its contents are only
/// readable through the [`EligibleCandidates`] view the shortlist call
/// returns — planner code cannot push workers into it.
#[derive(Debug, Default)]
pub struct CandidateBuf {
    ids: Vec<WorkerId>,
}

impl CandidateBuf {
    /// An empty buffer.
    pub fn new() -> Self {
        Self::default()
    }
}

/// The workers eligible to serve one request: spatially reachable
/// before the pickup deadline **and** class-eligible. Only
/// [`PlatformState::candidate_workers`] can construct one (the fields
/// are private and there is no other constructor), which makes the
/// eligibility seam compile-visible: a planner consumes this view and
/// therefore *cannot* inject a worker the platform didn't clear —
/// the DP never learns classes exist (DESIGN.md §12).
#[derive(Debug, Clone, Copy)]
pub struct EligibleCandidates<'a> {
    ids: &'a [WorkerId],
}

impl<'a> EligibleCandidates<'a> {
    /// Number of eligible workers.
    #[inline]
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// Whether no worker is eligible.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// Iterates the eligible workers in ascending id order.
    #[inline]
    pub fn iter(&self) -> impl Iterator<Item = WorkerId> + 'a {
        self.ids.iter().copied()
    }

    /// Crate-private constructor for unit tests of the engines.
    #[cfg(test)]
    pub(crate) fn from_ids(ids: &'a [WorkerId]) -> Self {
        EligibleCandidates { ids }
    }
}

thread_local! {
    /// Scratch buffer for grid queries (avoids per-request allocation).
    /// Thread-local rather than a `PlatformState` field so that
    /// [`PlatformState::candidate_workers`] can take `&self` — the
    /// query plane must be callable from many threads at once.
    static GRID_SCRATCH: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
}

impl PlatformState {
    /// Creates a platform at time `start_time` with every worker parked
    /// at its initial location. `grid_cell_m` is the grid size `g` of
    /// Table 5 (in meters here).
    pub fn new(
        oracle: Arc<dyn DistanceOracle>,
        workers: &[Worker],
        grid_cell_m: f64,
        start_time: Time,
    ) -> Self {
        let bbox = road_network::geo::BoundingBox::around(
            (0..oracle.num_vertices()).map(|i| oracle.point(VertexId(i as u32))),
        );
        let mut grid = GridIndex::new(bbox, grid_cell_m);
        let agents: Vec<WorkerAgent> = workers
            .iter()
            .enumerate()
            .map(|(i, w)| {
                assert_eq!(w.id.idx(), i, "workers must be densely indexed by id");
                grid.upsert(u64::from(w.id.0), oracle.point(w.origin));
                WorkerAgent {
                    worker: *w,
                    route: Route::new(w.origin, start_time),
                    assigned_distance: 0,
                    assigned_requests: Vec::new(),
                    active: true,
                }
            })
            .collect();
        PlatformState {
            now: start_time,
            oracle,
            agents,
            grid,
            sorted_grid: None,
            rejected: Vec::new(),
            served: 0,
            assignment: FxHashMap::default(),
            completed: FxHashSet::default(),
            cancelled: Vec::new(),
            congestion: None,
            classes: Arc::new(ClassTable::single()),
        }
    }

    /// Installs the fleet's vehicle-class table: every worker's class
    /// profile (speed multiplier, range budget) is looked up and pushed
    /// into its route, and workers joining later inherit it — the exact
    /// mirror of [`PlatformState::set_congestion`]. With the default
    /// single-class table every profile is standard and schedules are
    /// untouched.
    ///
    /// # Panics
    /// If a worker's class id is not in the table.
    pub fn set_classes(&mut self, classes: Arc<ClassTable>) {
        for agent in &mut self.agents {
            let profile = classes.get(agent.worker.class);
            agent
                .route
                .set_class_profile(profile.speed_permille, profile.range);
        }
        self.classes = classes;
    }

    /// The installed vehicle-class table.
    #[inline]
    pub fn classes(&self) -> &Arc<ClassTable> {
        &self.classes
    }

    /// Installs (or removes) a congestion profile: every worker's
    /// schedule is rebuilt under the provider, and workers joining
    /// later inherit it. Legs, planned distances and the unified cost
    /// all stay in free-flow units — only arrival times stretch (see
    /// [`crate::route::Route`] and DESIGN.md §7). Installing `None` or
    /// a flat profile reproduces the free-flow schedules exactly.
    pub fn set_congestion(&mut self, provider: Option<Arc<dyn TravelTimeProvider>>) {
        for agent in &mut self.agents {
            agent.route.set_congestion(provider.clone());
        }
        self.congestion = provider;
    }

    /// The installed congestion profile, if any.
    #[inline]
    pub fn congestion(&self) -> Option<&Arc<dyn TravelTimeProvider>> {
        self.congestion.as_ref()
    }

    /// Builds the T-Share sorted-cell index with cell size `cell_m`
    /// (idempotent). Worker positions are mirrored into it from then
    /// on; see [`SortedCellGrid`] for the memory implications.
    pub fn enable_sorted_grid(&mut self, cell_m: f64) {
        if self.sorted_grid.is_some() {
            return;
        }
        let bbox = road_network::geo::BoundingBox::around(
            (0..self.oracle.num_vertices()).map(|i| self.oracle.point(VertexId(i as u32))),
        );
        let mut sg = SortedCellGrid::new(bbox, cell_m);
        for a in self.agents.iter().filter(|a| a.active) {
            sg.grid_mut().upsert(
                u64::from(a.worker.id.0),
                self.oracle.point(a.route.start_vertex()),
            );
        }
        self.sorted_grid = Some(sg);
    }

    /// The T-Share index, if enabled.
    pub fn sorted_grid(&self) -> Option<&SortedCellGrid> {
        self.sorted_grid.as_ref()
    }

    /// Current platform time.
    #[inline]
    pub fn now(&self) -> Time {
        self.now
    }

    /// Advances the platform clock (monotone).
    pub fn advance_clock(&mut self, t: Time) {
        debug_assert!(t >= self.now, "clock must be monotone");
        self.now = t;
    }

    /// The distance oracle.
    #[inline]
    pub fn oracle(&self) -> &dyn DistanceOracle {
        &*self.oracle
    }

    /// The shared oracle handle.
    pub fn oracle_arc(&self) -> Arc<dyn DistanceOracle> {
        Arc::clone(&self.oracle)
    }

    /// Number of workers.
    #[inline]
    pub fn num_workers(&self) -> usize {
        self.agents.len()
    }

    /// Read access to a worker agent.
    #[inline]
    pub fn agent(&self, w: WorkerId) -> &WorkerAgent {
        &self.agents[w.idx()]
    }

    /// All agents.
    pub fn agents(&self) -> &[WorkerAgent] {
        &self.agents
    }

    /// Grid-index memory estimate (Fig. 5's memory panel).
    pub fn grid_mem_bytes(&self) -> usize {
        self.grid.mem_bytes()
    }

    /// Shortlists workers eligible to serve `r` (Algo. 5 line 3):
    /// straight-line reachability at the network's top speed — a *safe*
    /// filter, since no worker can beat a straight line at top speed
    /// (and no class travels faster than baseline, see
    /// [`crate::types::ClassTable::new`]) — joined with the
    /// vehicle-class filter of the request's
    /// [`crate::types::ClassConstraint`]. These are the only two
    /// eligibility decisions made anywhere outside
    /// [`Route::insertion_feasible_with`]; planners receive the result
    /// as an opaque [`EligibleCandidates`] view.
    ///
    /// `direct` is `L = dis(o_r, d_r)`. Results are sorted by worker id
    /// for determinism. Pure read: safe to call concurrently.
    pub fn candidate_workers<'b>(
        &self,
        r: &Request,
        direct: Cost,
        buf: &'b mut CandidateBuf,
    ) -> EligibleCandidates<'b> {
        self.shortlist_where(r, direct, buf, |class| r.class.allows(class))
    }

    /// [`PlatformState::candidate_workers`] for a *group* of requests
    /// that will share one vehicle (epoch/batch planners): the spatial
    /// shortlist of the group's lead request, filtered to workers whose
    /// class every member's constraint allows. With only unconstrained
    /// requests this is exactly the lead's shortlist.
    ///
    /// # Panics
    /// If `group` is empty.
    pub fn group_candidate_workers<'b>(
        &self,
        group: &[Request],
        direct: Cost,
        buf: &'b mut CandidateBuf,
    ) -> EligibleCandidates<'b> {
        let lead = &group[0];
        self.shortlist_where(lead, direct, buf, |class| {
            group.iter().all(|m| m.class.allows(class))
        })
    }

    /// Whether two requests could ride the same vehicle as far as class
    /// constraints go — the grouping half of the eligibility seam for
    /// shareability planners. Pure read.
    #[inline]
    pub fn classes_compatible(&self, a: &Request, b: &Request) -> bool {
        a.class.compatible(b.class)
    }

    /// Shared body of the shortlist calls: grid reachability within the
    /// pickup budget, plus a class predicate.
    fn shortlist_where<'b>(
        &self,
        r: &Request,
        direct: Cost,
        buf: &'b mut CandidateBuf,
        class_ok: impl Fn(ClassId) -> bool,
    ) -> EligibleCandidates<'b> {
        buf.ids.clear();
        let pickup_ddl = r.deadline.saturating_sub(direct);
        let budget_cs = pickup_ddl.saturating_sub(self.now);
        // centiseconds → meters at top speed.
        let radius_m = (budget_cs as f64 / 100.0) * self.oracle.top_speed_mps();
        let origin = self.oracle.point(r.origin);
        GRID_SCRATCH.with_borrow_mut(|scratch| {
            self.grid.items_within(origin, radius_m, scratch);
            buf.ids.extend(
                scratch
                    .iter()
                    .map(|&id| WorkerId(id as u32))
                    .filter(|&w| class_ok(self.agents[w.idx()].worker.class)),
            );
        });
        buf.ids.sort_unstable();
        EligibleCandidates { ids: &buf.ids }
    }

    /// The class half of the eligibility seam, for planners that build
    /// their own *spatial* shortlist (T-Share's sorted-cell rings):
    /// drops every worker the request's class constraint excludes,
    /// preserving order. Grid item ids (`u64`) because that is what the
    /// cell indexes yield. A no-op for unconstrained requests, so the
    /// homogeneous fleet is untouched byte for byte.
    pub fn retain_class_eligible(&self, r: &Request, ids: &mut Vec<u64>) {
        ids.retain(|&id| {
            r.class
                .allows(self.agents[WorkerId(id as u32).idx()].worker.class)
        });
    }

    /// The read plane as a value: a borrow-checked, `Sync` snapshot of
    /// the fleet that concurrent planners plan against. While a view is
    /// alive the borrow checker guarantees no mutation can happen.
    #[inline]
    pub fn view(&self) -> FleetView<'_> {
        FleetView { state: self }
    }

    /// Commits an insertion plan: splices the stops into the worker's
    /// route and updates the cost accounting.
    pub fn commit(&mut self, w: WorkerId, r: &Request, plan: &InsertionPlan) {
        let agent = &mut self.agents[w.idx()];
        #[cfg(debug_assertions)]
        let old_remaining = agent.route.remaining_distance();
        agent.route.apply_insertion(plan, r);
        #[cfg(debug_assertions)]
        debug_assert_eq!(
            agent.route.remaining_distance(),
            old_remaining + plan.delta,
            "insertion delta must match the planned-distance growth"
        );
        debug_assert_eq!(
            agent.route.validate(agent.worker.capacity),
            Ok(()),
            "commit must preserve feasibility"
        );
        agent.assigned_distance += plan.delta;
        agent.assigned_requests.push(r.id);
        self.assignment.insert(r.id, w);
        self.served += 1;
    }

    /// Commits a *re-ordered* route for `w` that additionally serves
    /// `r` — the kinetic-tree baseline may permute pending stops, which
    /// plain insertion cannot express. `stops`/`legs` are the new tail
    /// (see [`Route::replace_tail`]); `delta` is the growth of the
    /// planned distance.
    ///
    /// Debug builds verify the invariability constraint: every request
    /// previously on the route must still be on it.
    pub fn commit_reordered(
        &mut self,
        w: WorkerId,
        r: &Request,
        stops: &[Stop],
        legs: &[Cost],
        delta: Cost,
    ) {
        let agent = &mut self.agents[w.idx()];
        #[cfg(debug_assertions)]
        let before: std::collections::BTreeSet<(RequestId, crate::types::StopKind)> = agent
            .route
            .stops()
            .iter()
            .map(|s| (s.request, s.kind))
            .collect();
        #[cfg(debug_assertions)]
        let old_remaining = agent.route.remaining_distance();
        agent.route.replace_tail(stops, legs);
        #[cfg(debug_assertions)]
        {
            let after: std::collections::BTreeSet<(RequestId, crate::types::StopKind)> = agent
                .route
                .stops()
                .iter()
                .map(|s| (s.request, s.kind))
                .collect();
            for key in &before {
                assert!(
                    after.contains(key),
                    "reorder dropped committed stop {key:?}"
                );
            }
            assert!(
                after.contains(&(r.id, crate::types::StopKind::Delivery)),
                "reorder must serve the new request"
            );
            assert_eq!(
                agent.route.remaining_distance(),
                old_remaining + delta,
                "delta must match the planned-distance growth"
            );
            assert_eq!(agent.route.validate(agent.worker.capacity), Ok(()));
        }
        agent.assigned_distance += delta;
        agent.assigned_requests.push(r.id);
        self.assignment.insert(r.id, w);
        self.served += 1;
    }

    /// Records a rejection (irrevocable; the penalty accrues).
    pub fn reject(&mut self, r: &Request) {
        self.rejected.push((r.id, r.penalty));
    }

    /// Pre-reserves every container that grows when requests are
    /// decided or completed (assignment map, completion set, rejection
    /// and cancellation logs, per-worker assignment histories) for `n`
    /// further requests. Decision-making itself is allocation-free in
    /// steady state; this moves the *bookkeeping* growth up front too,
    /// which is what lets the allocation-gated bench pin a planned
    /// insertion at zero allocations end to end.
    pub fn reserve_request_capacity(&mut self, n: usize) {
        self.assignment.reserve(n);
        self.completed.reserve(n);
        self.rejected.reserve(n);
        self.cancelled.reserve(n);
        for agent in &mut self.agents {
            agent.assigned_requests.reserve(n);
        }
    }

    /// Number of served (assigned) requests so far.
    #[inline]
    pub fn served_count(&self) -> usize {
        self.served
    }

    /// Number of rejected requests so far.
    #[inline]
    pub fn rejected_count(&self) -> usize {
        self.rejected.len()
    }

    /// Ids and penalties of rejected requests.
    pub fn rejected(&self) -> &[(RequestId, Cost)] {
        &self.rejected
    }

    /// Σ over workers of committed insertion deltas.
    pub fn total_assigned_distance(&self) -> Cost {
        self.agents.iter().map(|a| a.assigned_distance).sum()
    }

    /// The unified cost (Eq. 1) at weight `alpha`.
    pub fn unified_cost(&self, alpha: u64) -> UnifiedCost {
        UnifiedCost {
            alpha,
            total_distance: self.total_assigned_distance(),
            total_penalty: self.rejected.iter().map(|(_, p)| *p).sum(),
        }
    }

    // ── Movement API (driven by the simulator) ───────────────────────

    /// Moves a worker to vertex `v`, arriving at `time`;
    /// `first_leg` must be `dis(v, l_1)` when the route is non-empty.
    pub fn set_worker_position(
        &mut self,
        w: WorkerId,
        v: VertexId,
        time: Time,
        first_leg: Option<Cost>,
    ) {
        let agent = &mut self.agents[w.idx()];
        agent.route.set_start(v, time, first_leg);
        if agent.active {
            let p = self.oracle.point(v);
            self.grid.upsert(u64::from(w.0), p);
            if let Some(sg) = self.sorted_grid.as_mut() {
                sg.grid_mut().upsert(u64::from(w.0), p);
            }
        }
    }

    /// Snaps a mid-leg worker onto vertex `v` of its current first leg,
    /// reached at `time`, with `remaining_base` free-flow cost left to
    /// `l_1` ([`crate::route::Route::snap_on_leg`]: the head arrival is
    /// frozen so a snap never moves the schedule). The grid position
    /// follows, exactly as in [`PlatformState::set_worker_position`].
    pub fn snap_worker_on_leg(
        &mut self,
        w: WorkerId,
        v: VertexId,
        time: Time,
        remaining_base: Cost,
    ) {
        let agent = &mut self.agents[w.idx()];
        agent.route.snap_on_leg(v, time, remaining_base);
        if agent.active {
            let p = self.oracle.point(v);
            self.grid.upsert(u64::from(w.0), p);
            if let Some(sg) = self.sorted_grid.as_mut() {
                sg.grid_mut().upsert(u64::from(w.0), p);
            }
        }
    }

    /// Re-times an idle worker to `time` without moving it.
    pub fn retime_idle_worker(&mut self, w: WorkerId, time: Time) {
        debug_assert!(self.agents[w.idx()].route.is_empty());
        self.agents[w.idx()].route.set_start_time(time);
    }

    /// Pops the first stop of `w`'s route (the worker reached it); the
    /// grid position follows. Returns the stop and its arrival time.
    pub fn pop_worker_stop(&mut self, w: WorkerId) -> (Stop, Time) {
        let agent = &mut self.agents[w.idx()];
        let (stop, at) = agent.route.pop_front_stop();
        if stop.kind == StopKind::Delivery && self.assignment.remove(&stop.request).is_some() {
            self.completed.insert(stop.request);
        }
        if self.agents[w.idx()].active {
            let p = self.oracle.point(stop.vertex);
            self.grid.upsert(u64::from(w.0), p);
            if let Some(sg) = self.sorted_grid.as_mut() {
                sg.grid_mut().upsert(u64::from(w.0), p);
            }
        }
        (stop, at)
    }

    // ── Lifecycle API (cancellations and fleet churn) ────────────────

    /// Attempts to cancel a previously submitted request.
    ///
    /// * Pickup still pending → both its stops are removed from the
    ///   assigned worker's route (the bridge legs are re-queried from
    ///   the oracle), the freed planned distance is deducted from the
    ///   worker's accounting, and the served count rolls back.
    /// * Already picked up → [`CancelOutcome::Onboard`]: the delivery
    ///   stays committed (invariability).
    /// * Delivered / rejected / unseen → reported as such, no mutation.
    pub fn cancel_request(&mut self, rid: RequestId) -> CancelOutcome {
        let Some(&w) = self.assignment.get(&rid) else {
            if self.completed.contains(&rid) {
                return CancelOutcome::Completed;
            }
            if self.rejected.iter().any(|(r, _)| *r == rid) {
                return CancelOutcome::WasRejected;
            }
            return CancelOutcome::Unknown;
        };
        let oracle = Arc::clone(&self.oracle);
        let agent = &mut self.agents[w.idx()];
        match agent.route.remove_request(rid, |a, b| oracle.dis(a, b)) {
            Some(freed) => {
                agent.assigned_distance = agent.assigned_distance.saturating_sub(freed);
                debug_assert_eq!(agent.route.validate(agent.worker.capacity), Ok(()));
                self.assignment.remove(&rid);
                self.cancelled.push(rid);
                self.served -= 1;
                CancelOutcome::Cancelled { worker: w, freed }
            }
            // Still assigned but no pending pickup: the request is in
            // the vehicle (delivery pending) — completion is handled by
            // `pop_worker_stop`, which clears the assignment entry.
            None => CancelOutcome::Onboard { worker: w },
        }
    }

    /// Adds a worker to the fleet at the current time. Ids must stay
    /// dense: `w.id` must equal the current fleet size.
    ///
    /// # Panics
    /// If `w.id` is not the next dense id.
    pub fn add_worker(&mut self, w: Worker) {
        assert_eq!(
            w.id.idx(),
            self.agents.len(),
            "joining workers must take the next dense id"
        );
        let p = self.oracle.point(w.origin);
        self.grid.upsert(u64::from(w.id.0), p);
        if let Some(sg) = self.sorted_grid.as_mut() {
            sg.grid_mut().upsert(u64::from(w.id.0), p);
        }
        let mut route = Route::new(w.origin, self.now);
        if self.congestion.is_some() {
            route.set_congestion(self.congestion.clone());
        }
        let profile = self.classes.get(w.class);
        if !profile.is_standard_profile() {
            route.set_class_profile(profile.speed_permille, profile.range);
        }
        self.agents.push(WorkerAgent {
            worker: w,
            route,
            assigned_distance: 0,
            assigned_requests: Vec::new(),
            active: true,
        });
    }

    /// Retires a worker: it leaves the grid indexes (so it is never
    /// shortlisted again) but keeps its committed stops — the driver
    /// keeps moving it until its route drains. Idempotent.
    pub fn retire_worker(&mut self, w: WorkerId) {
        let agent = &mut self.agents[w.idx()];
        if !agent.active {
            return;
        }
        agent.active = false;
        self.grid.remove(u64::from(w.0));
        if let Some(sg) = self.sorted_grid.as_mut() {
            sg.grid_mut().remove(u64::from(w.0));
        }
    }

    /// Exports an **idle** worker for a cross-platform handoff: retires
    /// it here (grid removal, no new work) and returns the
    /// [`HandoffTicket`] the receiving platform turns back into a
    /// worker via [`PlatformState::add_worker`] (under that platform's
    /// own dense id).
    ///
    /// Returns `None` — and mutates nothing — unless the worker is
    /// active with an empty route: a worker with committed stops must
    /// finish them where they were promised (the invariability
    /// constraint), and splitting its ledger would break the exact
    /// driven/planned accounting on both sides.
    pub fn export_worker(&mut self, w: WorkerId) -> Option<HandoffTicket> {
        let agent = &self.agents[w.idx()];
        if !agent.active || !agent.route.is_empty() {
            return None;
        }
        let ticket = HandoffTicket {
            position: agent.route.start_vertex(),
            capacity: agent.worker.capacity,
            class: agent.worker.class,
        };
        self.retire_worker(w);
        Some(ticket)
    }

    /// Strips every not-yet-picked-up request from `w`'s route (the
    /// `Reassign` departure policy), rolling back their accounting as
    /// in [`PlatformState::cancel_request`] — but *without* marking
    /// them cancelled: the caller re-offers them through the planner.
    /// Onboard riders stay (they must still be delivered).
    ///
    /// Returns the stripped request ids in route order, each with the
    /// planned free-flow distance the strip freed — the same quantity
    /// [`CancelOutcome::Cancelled`] reports, so the audit can replay
    /// the ledger `planned = Σ deltas − Σ freed` exactly, congested or
    /// not. Bridge legs are re-queried at free-flow cost and the
    /// schedule is rebuilt under the installed congestion profile, so
    /// departure-time-aware arrivals stay correct after the surgery.
    pub fn strip_unpicked(&mut self, w: WorkerId) -> Vec<(RequestId, Cost)> {
        let mut stripped: Vec<(RequestId, Cost)> = Vec::new();
        for s in self.agents[w.idx()].route.stops() {
            if s.kind == StopKind::Pickup && !stripped.iter().any(|&(r, _)| r == s.request) {
                stripped.push((s.request, 0));
            }
        }
        let oracle = Arc::clone(&self.oracle);
        for (rid, freed_out) in &mut stripped {
            let agent = &mut self.agents[w.idx()];
            let freed = agent
                .route
                .remove_request(*rid, |a, b| oracle.dis(a, b))
                .expect("pickup pending by construction");
            agent.assigned_distance = agent.assigned_distance.saturating_sub(freed);
            self.assignment.remove(rid);
            self.served -= 1;
            *freed_out = freed;
        }
        debug_assert_eq!(
            self.agents[w.idx()]
                .route
                .validate(self.agents[w.idx()].worker.capacity),
            Ok(())
        );
        stripped
    }

    /// Records a cancellation that was absorbed *outside* the platform
    /// — a batch planner dropping a still-buffered request from its
    /// epoch. No route ever saw the request, so there is nothing to
    /// undo; this only keeps [`PlatformState::cancelled`] the complete
    /// list of withdrawn requests.
    pub fn note_cancelled(&mut self, rid: RequestId) {
        debug_assert!(
            !self.assignment.contains_key(&rid),
            "assigned requests must go through cancel_request"
        );
        self.cancelled.push(rid);
    }

    /// Number of successfully cancelled requests so far.
    #[inline]
    pub fn cancelled_count(&self) -> usize {
        self.cancelled.len()
    }

    /// Ids of successfully cancelled requests, in cancellation order.
    pub fn cancelled(&self) -> &[RequestId] {
        &self.cancelled
    }

    /// Number of requests fully delivered so far.
    #[inline]
    pub fn completed_count(&self) -> usize {
        self.completed.len()
    }

    /// The worker currently assigned to serve `rid`, if any.
    pub fn assigned_worker(&self, rid: RequestId) -> Option<WorkerId> {
        self.assignment.get(&rid).copied()
    }
}

/// A read-only snapshot of the platform — the *query plane* as a type.
///
/// A `FleetView` borrows the [`PlatformState`] immutably, so while any
/// view is alive the borrow checker rules out commits, movement and
/// lifecycle mutations; and because `PlatformState` is `Sync`, one view
/// can be shared across threads. It exposes exactly the operations the
/// decision and planning phases need.
#[derive(Clone, Copy)]
pub struct FleetView<'a> {
    state: &'a PlatformState,
}

impl<'a> FleetView<'a> {
    /// Current platform time.
    #[inline]
    pub fn now(&self) -> Time {
        self.state.now()
    }

    /// The distance oracle.
    #[inline]
    pub fn oracle(&self) -> &'a dyn DistanceOracle {
        self.state.oracle()
    }

    /// Number of workers.
    #[inline]
    pub fn num_workers(&self) -> usize {
        self.state.num_workers()
    }

    /// Read access to a worker agent.
    #[inline]
    pub fn agent(&self, w: WorkerId) -> &'a WorkerAgent {
        &self.state.agents[w.idx()]
    }

    /// All agents.
    #[inline]
    pub fn agents(&self) -> &'a [WorkerAgent] {
        self.state.agents()
    }

    /// Eligibility shortlist (deadline reachability × class filter) —
    /// see [`PlatformState::candidate_workers`].
    #[inline]
    pub fn candidate_workers<'b>(
        &self,
        r: &Request,
        direct: Cost,
        buf: &'b mut CandidateBuf,
    ) -> EligibleCandidates<'b> {
        self.state.candidate_workers(r, direct, buf)
    }
}

// The whole point of the query plane: reads are shareable across
// threads. Compile-time proof that nothing with interior mutability
// sneaks back into `PlatformState`.
const _: fn() = || {
    fn assert_sync<T: Sync>() {}
    assert_sync::<PlatformState>();
    assert_sync::<FleetView<'_>>();
};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::insertion::linear_dp_insertion;
    use road_network::geo::Point;
    use road_network::matrix::MatrixOracle;

    fn line_oracle(n: usize) -> Arc<dyn DistanceOracle> {
        let rows: Vec<Vec<Cost>> = (0..n)
            .map(|u| (0..n).map(|v| (u.abs_diff(v) as Cost) * 100).collect())
            .collect();
        // 1 m apart, top speed 1 m/s ⇒ euc(u,v) = |u−v|·100 = dis.
        let points = (0..n).map(|k| Point::new(k as f64, 0.0)).collect();
        Arc::new(MatrixOracle::from_matrix(&rows, points, 1.0))
    }

    fn workers(n: u32, origin: u32, cap: u32) -> Vec<Worker> {
        (0..n)
            .map(|i| Worker {
                class: Default::default(),
                id: WorkerId(i),
                origin: VertexId(origin + i),
                capacity: cap,
            })
            .collect()
    }

    fn request(id: u32, o: u32, d: u32, deadline: Time) -> Request {
        Request {
            class: Default::default(),
            id: RequestId(id),
            origin: VertexId(o),
            destination: VertexId(d),
            release: 0,
            deadline,
            penalty: 100,
            capacity: 1,
        }
    }

    #[test]
    fn candidate_filter_respects_pickup_reachability() {
        let oracle = line_oracle(100);
        let ws = workers(3, 0, 4); // workers at vertices 0, 1, 2
        let state = PlatformState::new(oracle, &ws, 10.0, 0);
        // Pickup at vertex 50, deadline leaves 10s of pickup budget at
        // 1 m/s ⇒ 10 m radius: no worker is within 10 m of x=50.
        let r = request(1, 50, 52, 1_200); // L = 200 cs; pickup ddl = 1000 cs = 10 s
        let mut buf = CandidateBuf::new();
        assert!(state.candidate_workers(&r, 200, &mut buf).is_empty());
        // Generous deadline: everyone is a candidate, sorted by id.
        let r = request(2, 50, 52, 100_000);
        let out: Vec<WorkerId> = state.candidate_workers(&r, 200, &mut buf).iter().collect();
        assert_eq!(out, vec![WorkerId(0), WorkerId(1), WorkerId(2)]);
    }

    #[test]
    fn commit_updates_accounting_and_route() {
        let oracle = line_oracle(30);
        let ws = workers(1, 0, 4);
        let mut state = PlatformState::new(oracle, &ws, 10.0, 0);
        let r = request(1, 5, 10, 100_000);
        let plan =
            linear_dp_insertion(&state.agent(WorkerId(0)).route, 4, &r, state.oracle()).unwrap();
        state.commit(WorkerId(0), &r, &plan);
        assert_eq!(state.served_count(), 1);
        assert_eq!(state.total_assigned_distance(), 1_000); // 0→5→10
        assert_eq!(state.agent(WorkerId(0)).route.len(), 2);
        assert_eq!(
            state.agent(WorkerId(0)).assigned_requests,
            vec![RequestId(1)]
        );

        state.reject(&request(2, 1, 2, 10));
        let uc = state.unified_cost(1);
        assert_eq!(uc.total_distance, 1_000);
        assert_eq!(uc.total_penalty, 100);
        assert_eq!(uc.value(), 1_100);
    }

    #[test]
    fn movement_updates_grid_candidates() {
        let oracle = line_oracle(100);
        let ws = workers(1, 0, 4);
        let mut state = PlatformState::new(oracle, &ws, 5.0, 0);
        let mut buf = CandidateBuf::new();
        // Tight budget near vertex 90: worker at 0 not a candidate.
        let r = request(1, 90, 92, state.now() + 200 + 500); // 5 s pickup budget
        assert!(state.candidate_workers(&r, 200, &mut buf).is_empty());
        // Teleport the worker to vertex 89 (simulating movement).
        state.set_worker_position(WorkerId(0), VertexId(89), 100, None);
        let out: Vec<WorkerId> = state.candidate_workers(&r, 200, &mut buf).iter().collect();
        assert_eq!(out, vec![WorkerId(0)]);
    }

    #[test]
    fn pop_stop_moves_worker_and_load() {
        let oracle = line_oracle(30);
        let ws = workers(1, 0, 4);
        let mut state = PlatformState::new(oracle, &ws, 10.0, 0);
        let r = request(1, 5, 10, 100_000);
        let plan =
            linear_dp_insertion(&state.agent(WorkerId(0)).route, 4, &r, state.oracle()).unwrap();
        state.commit(WorkerId(0), &r, &plan);
        let (stop, at) = state.pop_worker_stop(WorkerId(0));
        assert_eq!(stop.vertex, VertexId(5));
        assert_eq!(at, 500);
        assert_eq!(state.agent(WorkerId(0)).route.onboard(), 1);
        assert_eq!(state.agent(WorkerId(0)).route.start_vertex(), VertexId(5));
    }

    #[test]
    fn cancel_rolls_back_route_and_accounting() {
        let oracle = line_oracle(30);
        let ws = workers(1, 0, 4);
        let mut state = PlatformState::new(oracle, &ws, 10.0, 0);
        let r1 = request(1, 5, 10, 100_000);
        let r2 = request(2, 12, 20, 100_000);
        for r in [&r1, &r2] {
            let plan =
                linear_dp_insertion(&state.agent(WorkerId(0)).route, 4, r, state.oracle()).unwrap();
            state.commit(WorkerId(0), r, &plan);
        }
        assert_eq!(state.served_count(), 2);
        assert_eq!(state.assigned_worker(RequestId(2)), Some(WorkerId(0)));
        let before = state.total_assigned_distance();

        let out = state.cancel_request(RequestId(2));
        let CancelOutcome::Cancelled { worker, freed } = out else {
            panic!("expected cancellation, got {out:?}");
        };
        assert_eq!(worker, WorkerId(0));
        assert_eq!(state.served_count(), 1);
        assert_eq!(state.cancelled_count(), 1);
        assert_eq!(state.cancelled(), &[RequestId(2)]);
        assert_eq!(state.total_assigned_distance(), before - freed);
        assert_eq!(state.agent(WorkerId(0)).route.len(), 2);
        assert_eq!(state.assigned_worker(RequestId(2)), None);
        // Second cancel: nothing left to cancel.
        assert_eq!(state.cancel_request(RequestId(2)), CancelOutcome::Unknown);
    }

    #[test]
    fn cancel_respects_onboard_completed_and_rejected() {
        let oracle = line_oracle(30);
        let ws = workers(1, 0, 4);
        let mut state = PlatformState::new(oracle, &ws, 10.0, 0);
        let r = request(1, 5, 10, 100_000);
        let plan =
            linear_dp_insertion(&state.agent(WorkerId(0)).route, 4, &r, state.oracle()).unwrap();
        state.commit(WorkerId(0), &r, &plan);

        // Picked up: too late, the delivery is irrevocable.
        state.pop_worker_stop(WorkerId(0));
        assert_eq!(
            state.cancel_request(RequestId(1)),
            CancelOutcome::Onboard {
                worker: WorkerId(0)
            }
        );
        // Delivered: completed.
        state.pop_worker_stop(WorkerId(0));
        assert_eq!(state.cancel_request(RequestId(1)), CancelOutcome::Completed);
        assert_eq!(state.completed_count(), 1);

        state.reject(&request(2, 1, 2, 10));
        assert_eq!(
            state.cancel_request(RequestId(2)),
            CancelOutcome::WasRejected
        );
        assert_eq!(state.cancel_request(RequestId(9)), CancelOutcome::Unknown);
    }

    #[test]
    fn retire_removes_from_candidates_and_strip_reassigns() {
        let oracle = line_oracle(100);
        let ws = workers(2, 0, 4); // workers at 0 and 1
        let mut state = PlatformState::new(oracle, &ws, 10.0, 0);
        let r1 = request(1, 5, 10, 1_000_000);
        let plan =
            linear_dp_insertion(&state.agent(WorkerId(0)).route, 4, &r1, state.oracle()).unwrap();
        state.commit(WorkerId(0), &r1, &plan);

        let mut buf = CandidateBuf::new();
        let probe = request(9, 2, 4, 1_000_000);
        let out: Vec<WorkerId> = state
            .candidate_workers(&probe, 200, &mut buf)
            .iter()
            .collect();
        assert_eq!(out, vec![WorkerId(0), WorkerId(1)]);

        state.retire_worker(WorkerId(0));
        state.retire_worker(WorkerId(0)); // idempotent
        let out: Vec<WorkerId> = state
            .candidate_workers(&probe, 200, &mut buf)
            .iter()
            .collect();
        assert_eq!(out, vec![WorkerId(1)]);
        assert!(!state.agent(WorkerId(0)).active);

        // Stripping hands the un-picked request back, reporting the
        // freed planned distance (the full 0→5→10 plan here).
        let stripped = state.strip_unpicked(WorkerId(0));
        assert_eq!(stripped, vec![(RequestId(1), 1_000)]);
        assert!(state.agent(WorkerId(0)).route.is_empty());
        assert_eq!(state.served_count(), 0);
        assert_eq!(state.total_assigned_distance(), 0);
        // Not marked cancelled — the caller re-offers it.
        assert_eq!(state.cancelled_count(), 0);
    }

    #[test]
    fn export_worker_only_hands_off_idle_workers() {
        let oracle = line_oracle(100);
        let ws = workers(2, 0, 4); // workers at 0 and 1
        let mut state = PlatformState::new(oracle.clone(), &ws, 10.0, 0);
        let r = request(1, 5, 10, 1_000_000);
        let plan =
            linear_dp_insertion(&state.agent(WorkerId(0)).route, 4, &r, state.oracle()).unwrap();
        state.commit(WorkerId(0), &r, &plan);

        // Busy worker: refused, nothing changes.
        assert_eq!(state.export_worker(WorkerId(0)), None);
        assert!(state.agent(WorkerId(0)).active);

        // Idle worker: exported with its exact position, then retired.
        state.set_worker_position(WorkerId(1), VertexId(42), 100, None);
        let ticket = state.export_worker(WorkerId(1)).expect("idle worker");
        assert_eq!(
            ticket,
            HandoffTicket {
                class: Default::default(),
                position: VertexId(42),
                capacity: 4
            }
        );
        assert!(!state.agent(WorkerId(1)).active);
        let mut buf = CandidateBuf::new();
        let probe = request(9, 42, 44, 1_000_000);
        assert!(
            !state
                .candidate_workers(&probe, 200, &mut buf)
                .iter()
                .any(|w| w == WorkerId(1)),
            "exported worker left the grid"
        );
        // Re-export: already retired, refused.
        assert_eq!(state.export_worker(WorkerId(1)), None);

        // The receiving platform re-creates the worker from the ticket.
        let mut dest = PlatformState::new(oracle, &[], 10.0, 100);
        dest.add_worker(Worker {
            class: Default::default(),
            id: WorkerId(0),
            origin: ticket.position,
            capacity: ticket.capacity,
        });
        assert_eq!(dest.num_workers(), 1);
        assert_eq!(dest.agent(WorkerId(0)).route.start_vertex(), VertexId(42));
    }

    #[test]
    fn add_worker_joins_grid_and_fleet() {
        let oracle = line_oracle(100);
        let ws = workers(1, 0, 4);
        let mut state = PlatformState::new(oracle, &ws, 10.0, 0);
        state.advance_clock(500);
        state.add_worker(Worker {
            class: Default::default(),
            id: WorkerId(1),
            origin: VertexId(50),
            capacity: 2,
        });
        assert_eq!(state.num_workers(), 2);
        assert_eq!(state.agent(WorkerId(1)).route.start_time(), 500);
        let mut buf = CandidateBuf::new();
        let probe = request(9, 50, 52, 1_000_000);
        assert!(state
            .candidate_workers(&probe, 200, &mut buf)
            .iter()
            .any(|w| w == WorkerId(1)));
    }

    #[test]
    #[should_panic(expected = "next dense id")]
    fn add_worker_enforces_dense_ids() {
        let oracle = line_oracle(10);
        let ws = workers(1, 0, 4);
        let mut state = PlatformState::new(oracle, &ws, 10.0, 0);
        state.add_worker(Worker {
            class: Default::default(),
            id: WorkerId(7),
            origin: VertexId(0),
            capacity: 2,
        });
    }

    #[test]
    fn concurrent_candidate_queries_match_sequential() {
        let oracle = line_oracle(100);
        let ws = workers(3, 0, 4);
        let state = PlatformState::new(oracle, &ws, 10.0, 0);
        let r = request(2, 50, 52, 100_000);
        let mut buf = CandidateBuf::new();
        let expect: Vec<WorkerId> = state.candidate_workers(&r, 200, &mut buf).iter().collect();
        assert_eq!(expect, vec![WorkerId(0), WorkerId(1), WorkerId(2)]);

        // The same query through a shared view, from four threads at
        // once — `&self` reads need no coordination.
        let view = state.view();
        let pool = crate::exec::WorkPool::new(4);
        let outs = pool.run(|_| {
            let mut buf = CandidateBuf::new();
            let mut out = Vec::new();
            for _ in 0..50 {
                out = view.candidate_workers(&r, 200, &mut buf).iter().collect();
            }
            out
        });
        for out in outs {
            assert_eq!(out, expect);
        }
        assert_eq!(view.num_workers(), 3);
        assert_eq!(view.agent(WorkerId(1)).worker.id, WorkerId(1));
    }

    #[test]
    fn congestion_installs_into_present_and_future_routes() {
        use road_network::congestion::CongestionProfile;
        let oracle = line_oracle(30);
        let ws = workers(1, 0, 4);
        let mut state = PlatformState::new(oracle, &ws, 10.0, 0);
        let r = request(1, 5, 10, 100_000);
        let plan =
            linear_dp_insertion(&state.agent(WorkerId(0)).route, 4, &r, state.oracle()).unwrap();
        state.commit(WorkerId(0), &r, &plan);
        assert_eq!(state.agent(WorkerId(0)).route.arr(2), 1_000);

        let profile: Arc<dyn road_network::congestion::TravelTimeProvider> =
            Arc::new(CongestionProfile::constant("x2", 2.0).unwrap());
        state.set_congestion(Some(profile));
        // Existing schedule re-stretched; economics unchanged.
        assert_eq!(state.agent(WorkerId(0)).route.arr(2), 2_000);
        assert_eq!(state.total_assigned_distance(), 1_000);
        assert!(state.agent(WorkerId(0)).route.time_dependent());
        // Joiners inherit the profile.
        state.add_worker(Worker {
            class: Default::default(),
            id: WorkerId(1),
            origin: VertexId(20),
            capacity: 2,
        });
        assert!(state.agent(WorkerId(1)).route.congestion().is_some());

        // A mid-leg snap keeps the schedule and moves the grid entry.
        state.snap_worker_on_leg(WorkerId(0), VertexId(2), 400, 300);
        assert_eq!(state.agent(WorkerId(0)).route.arr(1), 1_000);
        assert_eq!(state.agent(WorkerId(0)).route.leg(1), 300);
        let mut buf = CandidateBuf::new();
        let probe = request(9, 2, 4, 1_000_000);
        assert!(state
            .candidate_workers(&probe, 200, &mut buf)
            .iter()
            .any(|w| w == WorkerId(0)));
    }

    #[test]
    #[should_panic(expected = "densely indexed")]
    fn worker_ids_must_be_dense() {
        let oracle = line_oracle(10);
        let ws = vec![Worker {
            class: Default::default(),
            id: WorkerId(5),
            origin: VertexId(0),
            capacity: 4,
        }];
        let _ = PlatformState::new(oracle, &ws, 10.0, 0);
    }
}
