//! [`MobilityService`] — the streaming facade of the platform.
//!
//! The paper's setting is online (§2): requests "arrive dynamically and
//! must be served immediately and irrevocably". This type is that
//! setting as an API. It owns a [`PlatformState`] and a boxed
//! [`Planner`], and consumes one [`PlatformEvent`] at a time through
//! [`MobilityService::submit`] — from a simulator replaying a trace, a
//! test feeding a hand-written interleaving, or a live ingestion loop
//! reading a socket. No complete-future-knowledge is required: the
//! service never looks past the event it was just handed.
//!
//! Each `submit` returns the [`ServiceReply`] events it caused —
//! planner decisions, pickups/deliveries passed while moving workers
//! forward, cancellation acknowledgements, fleet changes. When the
//! stream ends, [`MobilityService::drain`] flushes planner buffers,
//! lets workers finish their routes, and produces the same
//! [`SimOutcome`] report as the batch engine ([`crate::engine`] is a
//! thin driver over this type).
//!
//! The two URPSM constraints survive every event: a cancellation frees
//! only un-picked stops (an onboard rider is delivered regardless), and
//! a departing worker either drains its committed route or hands its
//! un-picked requests back through the planner
//! ([`ReassignPolicy`]) — never abandoning anyone mid-ride.

use std::sync::Arc;
use std::time::{Duration, Instant};

use road_network::fxhash::FxHashMap;
use road_network::oracle::DistanceOracle;
use road_network::Cost;
use urpsm_core::event::{PlatformEvent, ReassignPolicy, WorkerChange};
use urpsm_core::planner::{Planner, PlannerReplies};
use urpsm_core::platform::{CancelOutcome, HandoffTicket, Outcome, PlatformState};
use urpsm_core::types::{Request, RequestId, StopKind, Time, Worker, WorkerId};

use crate::audit::audit_events;
use crate::engine::{SimConfig, SimOutcome};
use crate::metrics::SimMetrics;
use crate::motion::WorkerMotion;
use crate::SimEvent;

/// What [`MobilityService::submit`] hands back: the timestamped events
/// caused by one input event. The same type as the simulator's event
/// log entries, so a live caller and a post-hoc auditor read one
/// vocabulary.
pub type ServiceReply = SimEvent;

/// A logical snapshot of a service's progress, cheap enough to cut
/// after every micro-batch: the event-log length, the platform clock,
/// and an order-sensitive digest of the full log
/// ([`crate::event_log_digest`]).
///
/// Because the platform is deterministic — the same input event
/// sequence always produces the same log — this triple *is* the state
/// for recovery purposes: a replay that reaches the same checkpoint has
/// reconstructed the same platform, byte for byte. The ingestion
/// plane's snapshots (DESIGN.md §9) persist exactly this next to the
/// WAL offset.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServiceCheckpoint {
    /// Number of events in the service's log.
    pub events: u64,
    /// Current platform time.
    pub last_time: Time,
    /// [`crate::event_log_digest`] of the log.
    pub digest: u64,
}

/// The event-driven mobility platform: state + planner + worker motion
/// behind a single streaming entry point.
pub struct MobilityService<'p> {
    state: PlatformState,
    planner: Box<dyn Planner + 'p>,
    oracle: Arc<dyn DistanceOracle>,
    motions: Vec<WorkerMotion>,
    /// Every worker that was ever part of the fleet (initial + joined),
    /// densely indexed by id — the audit needs the full cast.
    workers: Vec<Worker>,
    /// Every request ever submitted, by id (reassignment re-offers need
    /// the full request, not just its id).
    registry: FxHashMap<RequestId, Request>,
    /// Requests in arrival order (the audit's universe).
    arrived: Vec<Request>,
    events: Vec<SimEvent>,
    config: SimConfig,
    last_time: Time,
    planning_time: Duration,
    served: usize,
    rejected: usize,
    cancelled: usize,
}

impl<'p> MobilityService<'p> {
    /// Opens a service at `start_time` with an initial fleet. The
    /// planner is boxed so callers can hand over ownership
    /// (`Box::new(planner)`) or lend it (`Box::new(&mut planner)`, via
    /// the `impl Planner for &mut P` adapter) and keep reading its
    /// statistics afterwards.
    pub fn new(
        oracle: Arc<dyn DistanceOracle>,
        workers: Vec<Worker>,
        planner: Box<dyn Planner + 'p>,
        config: SimConfig,
        start_time: Time,
    ) -> Self {
        let mut state = PlatformState::new(
            Arc::clone(&oracle),
            &workers,
            config.grid_cell_m,
            start_time,
        );
        if let Some(profile) = &config.congestion {
            // Two provider flavors (DESIGN.md §7 vs §10): the PR-5
            // profile *overlay* stretches schedules along free-flow
            // paths; with `td_oracle` and a graph-backed oracle, the
            // time-dependent oracle *reroutes* — schedules follow the
            // path that is shortest at the departure time. Matrix-style
            // oracles expose no graph and keep the overlay.
            let provider: Arc<dyn road_network::congestion::TravelTimeProvider> =
                match (config.td_oracle, oracle.backing_network()) {
                    (true, Some(g)) => Arc::new(road_network::td::TdTravelTimeProvider::new(
                        g.clone(),
                        profile.clone(),
                        oracle.backing_labels().cloned(),
                    )),
                    _ => profile.clone(),
                };
            state.set_congestion(Some(provider));
        }
        if let Some(classes) = &config.classes {
            state.set_classes(Arc::clone(classes));
        }
        let motions = vec![WorkerMotion::default(); workers.len()];
        MobilityService {
            state,
            planner,
            oracle,
            motions,
            workers,
            registry: FxHashMap::default(),
            arrived: Vec::new(),
            events: Vec::new(),
            config,
            last_time: start_time,
            planning_time: Duration::ZERO,
            served: 0,
            rejected: 0,
            cancelled: 0,
        }
    }

    /// Current platform time (the largest event time seen so far).
    #[inline]
    pub fn now(&self) -> Time {
        self.last_time
    }

    /// Read access to the platform state.
    #[inline]
    pub fn state(&self) -> &PlatformState {
        &self.state
    }

    /// The planner's algorithm name.
    pub fn planner_name(&self) -> &'static str {
        self.planner.name()
    }

    /// The full event log accumulated so far.
    pub fn events(&self) -> &[SimEvent] {
        &self.events
    }

    /// Cuts a [`ServiceCheckpoint`] of the current progress — the
    /// snapshot/restore hook of the ingestion plane. Determinism makes
    /// this triple a complete state fingerprint: a recovery replay that
    /// reproduces it has reconstructed this exact platform.
    pub fn checkpoint(&self) -> ServiceCheckpoint {
        ServiceCheckpoint {
            events: self.events.len() as u64,
            last_time: self.last_time,
            digest: crate::event_log_digest(&self.events),
        }
    }

    /// Feeds one event into the service and returns everything it
    /// caused, in occurrence order: planner wake-ups that became due,
    /// stops passed while moving workers up to the event time, and the
    /// consequences of the event itself.
    ///
    /// Event times should be (weakly) monotone; a stale timestamp is
    /// clamped to the current platform time rather than rejected, so a
    /// live caller with slightly out-of-order sources degrades
    /// gracefully instead of crashing. Malformed fleet events are
    /// dropped on the same principle: a departure for an unknown worker
    /// and a join that breaks the dense-id contract (see
    /// [`PlatformEvent::WorkerJoined`]) produce no replies instead of a
    /// panic.
    pub fn submit(&mut self, event: PlatformEvent) -> Vec<ServiceReply> {
        #[cfg(feature = "obs")]
        urpsm_obs::with(|m| m.service_events.inc());
        let mark = self.events.len();
        let t = event.time().max(self.last_time);
        self.fire_wakeups_due(t);
        self.advance_all(t);
        self.last_time = t;

        match event {
            PlatformEvent::RequestArrived(r) => {
                self.registry.insert(r.id, r);
                self.arrived.push(r);
                let t0 = Instant::now();
                let outs = self.planner.on_request(&mut self.state, &r);
                self.planning_time += t0.elapsed();
                self.record(outs, t);
            }
            PlatformEvent::RequestCancelled { request, .. } => {
                self.handle_cancel(request, t);
            }
            // A join that breaks the dense-id contract is dropped (the
            // time advance above still counts).
            PlatformEvent::WorkerJoined { worker, .. }
                if worker.id.idx() == self.state.num_workers() =>
            {
                self.state.add_worker(worker);
                self.motions.push(WorkerMotion::default());
                self.workers.push(worker);
                self.events.push(SimEvent::WorkerJoined { t, w: worker.id });
                let t0 = Instant::now();
                self.planner
                    .on_worker_change(&mut self.state, WorkerChange::Joined(worker.id));
                self.planning_time += t0.elapsed();
            }
            PlatformEvent::WorkerJoined { .. } => {}
            PlatformEvent::WorkerLeft {
                worker, reassign, ..
            } => {
                self.handle_departure(worker, reassign, t);
            }
            PlatformEvent::Tick { .. } => {
                // Time advance + due wake-ups already happened above.
            }
        }
        let out = self.events[mark..].to_vec();
        #[cfg(feature = "obs")]
        urpsm_obs::with(|m| m.service_replies.add(out.len() as u64));
        out
    }

    /// Convenience: submits a whole pre-merged stream.
    pub fn submit_all<I>(&mut self, events: I) -> Vec<ServiceReply>
    where
        I: IntoIterator<Item = PlatformEvent>,
    {
        events.into_iter().flat_map(|e| self.submit(e)).collect()
    }

    /// Ends the stream: fires still-pending planner wake-ups (an open
    /// batch epoch ends at its boundary, not at stream end), flushes
    /// planner buffers, optionally lets every worker finish its route
    /// (`SimConfig::drain`), audits the full event log, and reports.
    pub fn drain(mut self) -> SimOutcome {
        self.fire_wakeups_due(Time::MAX);

        let t0 = Instant::now();
        let outs = self.planner.flush(&mut self.state);
        self.planning_time += t0.elapsed();
        self.record(outs, self.last_time);

        if self.config.drain {
            let horizon = self
                .state
                .agents()
                .iter()
                .map(|a| {
                    if a.route.is_empty() {
                        a.route.start_time()
                    } else {
                        a.route.arr(a.route.len())
                    }
                })
                .max()
                .unwrap_or(self.last_time)
                .max(self.last_time);
            self.advance_all(horizon);
            self.last_time = horizon;
        }

        let driven: Vec<Cost> = self.motions.iter().map(|m| m.driven).collect();
        let planned: Vec<Cost> = self
            .state
            .agents()
            .iter()
            .map(|a| a.assigned_distance)
            .collect();
        let audit_errors = audit_events(
            &self.arrived,
            &self.workers,
            &self.events,
            if self.config.drain {
                Some((&driven, &planned))
            } else {
                None
            },
        );
        // Per-class breakdown: each request is attributed to the class
        // of the worker that holds it at the end of the run (cancels
        // and strips already removed theirs), driven distance to the
        // motion ledger of each worker.
        let mut per_class =
            vec![crate::metrics::ClassMetrics::default(); self.state.classes().len()];
        for (a, d) in self.state.agents().iter().zip(&driven) {
            // A fleet tagged with classes but driven without a table
            // (no `SimConfig::classes`) still reports its breakdown.
            if a.worker.class.idx() >= per_class.len() {
                per_class.resize(a.worker.class.idx() + 1, Default::default());
            }
            let c = &mut per_class[a.worker.class.idx()];
            c.served += a.assigned_requests.len();
            c.driven_distance += *d;
        }
        #[cfg(feature = "obs")]
        urpsm_obs::with(|m| {
            m.classes_live.observe_max(per_class.len() as u64);
            for (i, c) in per_class.iter().enumerate() {
                let slot = urpsm_obs::class_slot(i);
                m.class_served[slot].add(c.served as u64);
                m.class_driven[slot].add(c.driven_distance);
            }
        });
        let metrics = SimMetrics {
            requests: self.arrived.len(),
            served: self.served,
            rejected: self.rejected,
            cancelled: self.cancelled,
            unified_cost: self.state.unified_cost(self.config.alpha),
            planning_time: self.planning_time,
            driven_distance: driven.iter().sum(),
            per_class,
        };
        SimOutcome {
            metrics,
            state: self.state,
            events: self.events,
            audit_errors,
        }
    }

    /// Exports an idle worker for a cross-service handoff (the
    /// geo-sharded dispatch plane moves border workers between shards
    /// through this): retires the worker here, logs its departure, and
    /// returns the [`HandoffTicket`] the receiving service turns into a
    /// [`PlatformEvent::WorkerJoined`] under its own dense id.
    ///
    /// Refused (`None`, no mutation, no event) for unknown workers and
    /// for workers with committed stops — only a worker with nothing
    /// promised can change jurisdictions, which is what keeps the
    /// driven/planned ledgers of both services exact (see
    /// [`PlatformState::export_worker`]).
    pub fn handoff_worker(&mut self, w: WorkerId) -> Option<HandoffTicket> {
        if w.idx() >= self.state.num_workers() {
            return None;
        }
        let ticket = self.state.export_worker(w)?;
        self.events.push(SimEvent::WorkerLeft {
            t: self.last_time,
            w,
        });
        let t0 = Instant::now();
        self.planner.on_worker_change(
            &mut self.state,
            WorkerChange::Left {
                worker: w,
                policy: ReassignPolicy::Drain,
            },
        );
        self.planning_time += t0.elapsed();
        Some(ticket)
    }

    // ── internals ────────────────────────────────────────────────────

    /// Fires every planner wake-up due at or before `t` (batch epoch
    /// boundaries), advancing workers to each boundary first.
    fn fire_wakeups_due(&mut self, t: Time) {
        while let Some(tw) = self.planner.next_wakeup() {
            if tw > t {
                break;
            }
            let tw = tw.max(self.last_time);
            self.advance_all(tw);
            let t0 = Instant::now();
            let outs = self.planner.on_time(&mut self.state, tw);
            self.planning_time += t0.elapsed();
            self.record(outs, tw);
            if self.planner.next_wakeup() == Some(tw) {
                break; // planner did not advance its wakeup: stop looping
            }
            self.last_time = tw;
        }
    }

    /// Moves every worker forward to time `t`, logging passed stops.
    fn advance_all(&mut self, t: Time) {
        self.state.advance_clock(t);
        let oracle = &*self.oracle;
        let events = &mut self.events;
        for (i, m) in self.motions.iter_mut().enumerate() {
            let w = WorkerId(i as u32);
            m.advance(&mut self.state, w, t, oracle, |stop, at| {
                events.push(match stop.kind {
                    StopKind::Pickup => SimEvent::Pickup {
                        t: at,
                        r: stop.request,
                        w,
                    },
                    StopKind::Delivery => SimEvent::Delivery {
                        t: at,
                        r: stop.request,
                        w,
                    },
                });
            });
        }
    }

    /// Logs planner outcomes and updates the served/rejected tallies.
    fn record(&mut self, outs: PlannerReplies, t: Time) {
        for (rid, out) in outs {
            match out {
                Outcome::Assigned { worker, delta } => {
                    self.served += 1;
                    self.events.push(SimEvent::Assigned {
                        t,
                        r: rid,
                        w: worker,
                        delta,
                    });
                }
                Outcome::Rejected => {
                    self.rejected += 1;
                    self.events.push(SimEvent::Rejected { t, r: rid });
                }
            }
        }
    }

    /// A cancellation: first offer it to the planner (batch planners
    /// may still hold the request in an epoch buffer), then fall back
    /// to platform-level route surgery. Refused cancellations (rider
    /// already onboard, request already completed/rejected/unknown)
    /// produce no event — the ride simply continues.
    fn handle_cancel(&mut self, request: RequestId, t: Time) {
        let t0 = Instant::now();
        let absorbed = self.planner.on_cancel(&mut self.state, request);
        self.planning_time += t0.elapsed();
        if absorbed {
            self.state.note_cancelled(request);
            self.cancelled += 1;
            // Still buffered: no route ever saw it, nothing was freed.
            self.events.push(SimEvent::Cancelled {
                t,
                r: request,
                freed: 0,
            });
            return;
        }
        if let CancelOutcome::Cancelled { freed, .. } = self.state.cancel_request(request) {
            // The assignment is void: roll the served tally back.
            self.served -= 1;
            self.cancelled += 1;
            self.events.push(SimEvent::Cancelled {
                t,
                r: request,
                freed,
            });
        }
    }

    /// A worker departure. `Drain`: the worker just stops taking new
    /// work and finishes its route. `Reassign`: its un-picked requests
    /// are stripped and re-offered through the planner (onboard riders
    /// are delivered by the departing worker either way).
    fn handle_departure(&mut self, worker: WorkerId, reassign: ReassignPolicy, t: Time) {
        if worker.idx() >= self.state.num_workers() {
            return; // unknown worker: drop the event
        }
        self.state.retire_worker(worker);
        let stripped = match reassign {
            ReassignPolicy::Drain => Vec::new(),
            ReassignPolicy::Reassign => self.state.strip_unpicked(worker),
        };
        for &(rid, freed) in &stripped {
            self.served -= 1;
            self.events.push(SimEvent::Unassigned {
                t,
                r: rid,
                w: worker,
                freed,
            });
        }
        self.events.push(SimEvent::WorkerLeft { t, w: worker });
        let t0 = Instant::now();
        self.planner.on_worker_change(
            &mut self.state,
            WorkerChange::Left {
                worker,
                policy: reassign,
            },
        );
        self.planning_time += t0.elapsed();
        for (rid, _) in stripped {
            let r = self.registry[&rid];
            let t0 = Instant::now();
            let outs = self.planner.on_request(&mut self.state, &r);
            self.planning_time += t0.elapsed();
            self.record(outs, t);
        }
    }
}

// The dispatch plane fans broadcast events out over shards on scoped
// threads, which requires moving each shard's service (planner
// included — `Planner: Send` is a supertrait) across a thread spawn.
// Compile-time proof that the whole service stays sendable.
const _: fn() = || {
    fn assert_send<T: Send>() {}
    assert_send::<MobilityService<'static>>();
};

#[cfg(test)]
mod tests {
    use super::*;
    use road_network::geo::Point;
    use road_network::matrix::MatrixOracle;
    use road_network::VertexId;
    use urpsm_core::planner::PruneGreedyDp;

    fn line_oracle(n: usize) -> Arc<dyn DistanceOracle> {
        let mut b = road_network::builder::NetworkBuilder::new();
        for i in 0..n {
            b.add_vertex(Point::new(i as f64, 0.0));
        }
        for i in 1..n as u32 {
            b.add_edge_with_cost(VertexId(i - 1), VertexId(i), 100)
                .unwrap();
        }
        b.set_top_speed_mps(1.0);
        Arc::new(MatrixOracle::from_network(&b.finish().unwrap()))
    }

    fn fleet(origins: &[u32]) -> Vec<Worker> {
        origins
            .iter()
            .enumerate()
            .map(|(i, &v)| Worker {
                class: Default::default(),
                id: WorkerId(i as u32),
                origin: VertexId(v),
                capacity: 4,
            })
            .collect()
    }

    fn req(id: u32, o: u32, d: u32, release: Time, deadline: Time) -> Request {
        Request {
            class: Default::default(),
            id: RequestId(id),
            origin: VertexId(o),
            destination: VertexId(d),
            release,
            deadline,
            penalty: 1_000_000,
            capacity: 1,
        }
    }

    fn service(origins: &[u32]) -> MobilityService<'static> {
        MobilityService::new(
            line_oracle(50),
            fleet(origins),
            Box::new(PruneGreedyDp::new()),
            SimConfig::default(),
            0,
        )
    }

    #[test]
    fn streaming_arrivals_match_batch_behaviour() {
        let mut svc = service(&[0, 40]);
        let replies = svc.submit(PlatformEvent::RequestArrived(req(0, 5, 10, 0, 100_000)));
        assert!(matches!(replies[0], SimEvent::Assigned { .. }));
        svc.submit(PlatformEvent::RequestArrived(req(
            1, 38, 30, 1_000, 100_000,
        )));
        let out = svc.drain();
        assert_eq!(out.audit_errors, Vec::<String>::new());
        assert_eq!(out.metrics.served, 2);
        assert_eq!(out.metrics.cancelled, 0);
        assert_eq!(
            out.metrics.driven_distance,
            out.state.total_assigned_distance()
        );
    }

    #[test]
    fn cancellation_before_pickup_frees_the_route() {
        let mut svc = service(&[0]);
        svc.submit(PlatformEvent::RequestArrived(req(0, 20, 30, 0, 100_000)));
        // Cancel at t=500: the worker is still driving to vertex 20
        // (pickup would be at t=2000).
        let replies = svc.submit(PlatformEvent::RequestCancelled {
            at: 500,
            request: RequestId(0),
        });
        assert!(replies
            .iter()
            .any(|e| matches!(e, SimEvent::Cancelled { r, .. } if *r == RequestId(0))));
        let out = svc.drain();
        assert_eq!(out.audit_errors, Vec::<String>::new());
        assert_eq!(out.metrics.served, 0);
        assert_eq!(out.metrics.cancelled, 1);
        // No pickup/delivery ever happened.
        assert!(!out
            .events
            .iter()
            .any(|e| matches!(e, SimEvent::Pickup { .. } | SimEvent::Delivery { .. })));
        // Accounting stayed exact despite the partial drive.
        assert_eq!(
            out.metrics.driven_distance,
            out.state.total_assigned_distance()
        );
    }

    #[test]
    fn cancellation_after_pickup_is_refused() {
        let mut svc = service(&[0]);
        svc.submit(PlatformEvent::RequestArrived(req(0, 5, 10, 0, 100_000)));
        // t=800: pickup (t=500) already happened; rider is onboard.
        let replies = svc.submit(PlatformEvent::RequestCancelled {
            at: 800,
            request: RequestId(0),
        });
        assert!(!replies
            .iter()
            .any(|e| matches!(e, SimEvent::Cancelled { .. })));
        let out = svc.drain();
        assert!(out.audit_errors.is_empty());
        assert_eq!(out.metrics.served, 1);
        assert_eq!(out.metrics.cancelled, 0);
    }

    #[test]
    fn worker_drain_departure_finishes_committed_stops() {
        let mut svc = service(&[0, 40]);
        svc.submit(PlatformEvent::RequestArrived(req(0, 5, 10, 0, 100_000)));
        let replies = svc.submit(PlatformEvent::WorkerLeft {
            at: 100,
            worker: WorkerId(0),
            reassign: ReassignPolicy::Drain,
        });
        assert!(matches!(replies[0], SimEvent::WorkerLeft { .. }));
        // A new request near the departed worker's position must go to
        // the remaining worker (or nowhere) — never to the retiree.
        svc.submit(PlatformEvent::RequestArrived(req(1, 6, 12, 200, 100_000)));
        let out = svc.drain();
        assert!(out.audit_errors.is_empty());
        for ev in &out.events {
            if let SimEvent::Assigned { r, w, .. } = ev {
                if *r == RequestId(1) {
                    assert_eq!(*w, WorkerId(1), "retired worker must not be assigned");
                }
            }
        }
        // The retiree still served its committed request.
        assert!(out
            .events
            .iter()
            .any(|e| matches!(e, SimEvent::Delivery { r, w, .. }
                if *r == RequestId(0) && *w == WorkerId(0))));
    }

    #[test]
    fn worker_reassign_departure_hands_requests_back() {
        let mut svc = service(&[0, 10]);
        // Assigned to worker 0 (nearest).
        svc.submit(PlatformEvent::RequestArrived(req(0, 4, 20, 0, 100_000)));
        let replies = svc.submit(PlatformEvent::WorkerLeft {
            at: 100,
            worker: WorkerId(0),
            reassign: ReassignPolicy::Reassign,
        });
        // Unassigned, departure, then a fresh decision for r0.
        assert!(replies
            .iter()
            .any(|e| matches!(e, SimEvent::Unassigned { r, .. } if *r == RequestId(0))));
        assert!(replies
            .iter()
            .any(|e| matches!(e, SimEvent::Assigned { r, w, .. }
                if *r == RequestId(0) && *w == WorkerId(1))));
        let out = svc.drain();
        assert_eq!(out.audit_errors, Vec::<String>::new());
        assert_eq!(out.metrics.served, 1);
        assert_eq!(
            out.metrics.driven_distance,
            out.state.total_assigned_distance()
        );
    }

    #[test]
    fn handoff_exports_idle_workers_and_stays_audit_clean() {
        let mut svc = service(&[0, 40]);
        svc.submit(PlatformEvent::RequestArrived(req(0, 5, 10, 0, 100_000)));
        // Worker 0 is busy with r0: the handoff must be refused.
        assert_eq!(svc.handoff_worker(WorkerId(0)), None);
        // Worker 1 is idle at vertex 40: exported, logged, retired.
        svc.submit(PlatformEvent::Tick { at: 200 });
        let ticket = svc.handoff_worker(WorkerId(1)).expect("idle worker");
        assert_eq!(ticket.position, VertexId(40));
        assert!(svc
            .events()
            .iter()
            .any(|e| matches!(e, SimEvent::WorkerLeft { w, .. } if *w == WorkerId(1))));
        // Unknown worker: refused.
        assert_eq!(svc.handoff_worker(WorkerId(9)), None);
        // A request at the exported worker's doorstep must not reach it.
        svc.submit(PlatformEvent::RequestArrived(req(1, 39, 35, 300, 100_000)));
        let out = svc.drain();
        assert_eq!(out.audit_errors, Vec::<String>::new());
        for ev in &out.events {
            if let SimEvent::Assigned { w, .. } = ev {
                assert_eq!(*w, WorkerId(0), "exported worker must take no work");
            }
        }
        assert_eq!(
            out.metrics.driven_distance,
            out.state.total_assigned_distance()
        );
    }

    #[test]
    fn worker_join_expands_the_fleet() {
        let mut svc = service(&[0]);
        // Far-away request with a tight pickup budget: worker 0 at
        // vertex 0 cannot make it in time.
        let r = req(0, 40, 45, 1_000, 2_200);
        let joined = Worker {
            class: Default::default(),
            id: WorkerId(1),
            origin: VertexId(39),
            capacity: 4,
        };
        let replies = svc.submit(PlatformEvent::WorkerJoined {
            at: 500,
            worker: joined,
        });
        assert!(matches!(replies[0], SimEvent::WorkerJoined { .. }));
        let replies = svc.submit(PlatformEvent::RequestArrived(r));
        assert!(replies
            .iter()
            .any(|e| matches!(e, SimEvent::Assigned { w, .. } if *w == WorkerId(1))));
        let out = svc.drain();
        assert!(out.audit_errors.is_empty());
    }

    #[test]
    fn tick_advances_time_without_side_effects() {
        let mut svc = service(&[0]);
        svc.submit(PlatformEvent::RequestArrived(req(0, 5, 10, 0, 100_000)));
        let replies = svc.submit(PlatformEvent::Tick { at: 700 });
        // The pickup at t=500 is passed while advancing to 700.
        assert!(matches!(replies[0], SimEvent::Pickup { t: 500, .. }));
        assert_eq!(svc.now(), 700);
        let out = svc.drain();
        assert!(out.audit_errors.is_empty());
    }

    #[test]
    fn malformed_fleet_events_are_dropped_not_fatal() {
        let mut svc = service(&[0]);
        // Unknown departure and a join that skips an id: both dropped.
        assert!(svc
            .submit(PlatformEvent::WorkerLeft {
                at: 10,
                worker: WorkerId(99),
                reassign: ReassignPolicy::Reassign,
            })
            .is_empty());
        assert!(svc
            .submit(PlatformEvent::WorkerJoined {
                at: 20,
                worker: Worker {
                    class: Default::default(),
                    id: WorkerId(7),
                    origin: VertexId(3),
                    capacity: 2,
                },
            })
            .is_empty());
        assert_eq!(svc.state().num_workers(), 1);
        svc.submit(PlatformEvent::RequestArrived(req(0, 5, 10, 30, 100_000)));
        let out = svc.drain();
        assert!(out.audit_errors.is_empty());
        assert_eq!(out.metrics.served, 1);
    }

    #[test]
    fn checkpoints_fingerprint_progress_deterministically() {
        let feed = |svc: &mut MobilityService<'static>| {
            svc.submit(PlatformEvent::RequestArrived(req(0, 5, 10, 0, 100_000)));
            svc.submit(PlatformEvent::Tick { at: 700 });
        };
        let mut a = service(&[0, 40]);
        let mut b = service(&[0, 40]);
        feed(&mut a);
        feed(&mut b);
        // Identical feeds → identical fingerprints.
        assert_eq!(a.checkpoint(), b.checkpoint());
        assert_eq!(a.checkpoint().events, a.events().len() as u64);
        assert_eq!(a.checkpoint().last_time, 700);
        // A diverging event changes the digest, not just the length.
        let before = b.checkpoint();
        b.submit(PlatformEvent::RequestArrived(req(1, 38, 30, 800, 100_000)));
        let after = b.checkpoint();
        assert_ne!(before.digest, after.digest);
        assert!(after.events > before.events);
    }

    #[test]
    fn stale_timestamps_clamp_instead_of_panicking() {
        let mut svc = service(&[0]);
        svc.submit(PlatformEvent::Tick { at: 1_000 });
        // An out-of-order arrival is processed at the platform's now.
        let replies = svc.submit(PlatformEvent::RequestArrived(req(0, 5, 10, 400, 100_000)));
        assert!(matches!(replies[0], SimEvent::Assigned { t: 1_000, .. }));
        let out = svc.drain();
        assert!(out.audit_errors.is_empty());
    }
}
