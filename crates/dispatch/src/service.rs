//! [`ShardedService`] — K independent [`MobilityService`]s behind one
//! streaming entry point.
//!
//! Every event is routed to its *home shard* by
//! [`PlatformEvent::routing`]: arrivals by pickup location, joins by
//! come-online position, cancellations follow their request,
//! departures follow their worker, ticks are broadcast. Each shard owns
//! a full platform — its own `PlatformState`, boxed [`Planner`],
//! worker motion and event
//! log — so shards never contend on state and a broadcast can fan out
//! over a [`WorkPool`] (shards are `Send` because planners are).
//!
//! The seams are governed by a [`BoundaryPolicy`]:
//!
//! * [`BoundaryPolicy::Strict`] — planning is shard-local. A request on
//!   the border of an empty shard is rejected even if a foreign worker
//!   idles across the street. Cheapest, loosest quality.
//! * [`BoundaryPolicy::Borrow`] — before planning, the dispatcher
//!   probes the `probe` nearest foreign shards' snapshots for idle
//!   workers that beat every home candidate on straight-line pickup
//!   distance; on a win the worker is *handed off*: exported from its
//!   shard through the exact-accounting surface
//!   ([`MobilityService::handoff_worker`] →
//!   [`urpsm_core::platform::PlatformState::export_worker`]) and
//!   re-hired by the home shard under its next dense local id.
//!
//! Global worker ids are preserved at the boundary: each shard plans in
//! its own dense local id space, and every reply is translated back to
//! the global id before it reaches the caller. Replies from
//! multi-shard steps are merged deterministically by
//! `(time, event_seq, shard_id)` — single-shard steps pass through
//! verbatim, which is why a 1-shard service is *byte-identical* to a
//! plain [`MobilityService`] (pinned by `tests/shard_equivalence.rs`).

use std::sync::Arc;

use road_network::fxhash::FxHashMap;
use road_network::oracle::DistanceOracle;
use road_network::{Cost, VertexId};
use urpsm_core::event::{EventRouting, PlatformEvent};
use urpsm_core::exec::WorkPool;
use urpsm_core::objective::UnifiedCost;
use urpsm_core::planner::Planner;
use urpsm_core::platform::CandidateBuf;
use urpsm_core::types::{Request, RequestId, Time, Worker, WorkerId};
use urpsm_simulator::engine::{SimConfig, SimOutcome};
use urpsm_simulator::metrics::SimMetrics;
use urpsm_simulator::service::{MobilityService, ServiceCheckpoint, ServiceReply};
use urpsm_simulator::SimEvent;

use crate::shard_map::ShardMap;

/// Bump the per-shard submitted-event counter (labelled series are
/// capped at [`urpsm_obs::MAX_SHARDS`]; higher shard ids fold into the
/// last slot).
#[cfg(feature = "obs")]
#[inline]
fn obs_shard_event(shard: usize) {
    urpsm_obs::with(|m| m.shard_events[urpsm_obs::registry::shard_slot(shard)].inc());
}

/// What happens at shard boundaries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BoundaryPolicy {
    /// Shard-local planning: no cross-shard traffic at all. Requests a
    /// shard cannot serve are rejected locally (their penalties
    /// accrue), exactly as if each shard were its own city.
    Strict,
    /// Probe the `probe` nearest foreign shards for idle border workers
    /// before planning each request; hand the best one off to the home
    /// shard when it strictly beats every home candidate on
    /// straight-line pickup distance (ties stay home).
    Borrow {
        /// How many foreign shards to probe (clamped to `K − 1`).
        probe: usize,
    },
}

impl Default for BoundaryPolicy {
    /// `Borrow` over the 3 nearest foreign shards.
    fn default() -> Self {
        BoundaryPolicy::Borrow { probe: 3 }
    }
}

/// Configuration of the sharded dispatch plane.
#[derive(Debug, Clone)]
pub struct ShardConfig {
    /// Number of geo-shards `K` (clamped to ≥ 1).
    pub shards: usize,
    /// The boundary policy.
    pub boundary: BoundaryPolicy,
    /// Width of the shard fan-out pool used for broadcast events
    /// (`1` = sequential, `0` = one thread per hardware core). Any
    /// width produces identical outputs — shards are independent and
    /// the reply merge is deterministic; only wall-clock changes.
    pub threads: usize,
    /// Per-shard simulation parameters (grid cell, α, drain, profile,
    /// classes).
    pub sim: SimConfig,
}

impl Default for ShardConfig {
    /// One shard (byte-identical to a plain `MobilityService`),
    /// default `Borrow` boundary, sequential fan-out.
    fn default() -> Self {
        ShardConfig {
            shards: 1,
            boundary: BoundaryPolicy::default(),
            threads: 1,
            sim: SimConfig::default(),
        }
    }
}

/// One shard's slice of a drained [`ShardedOutcome`].
pub struct ShardReport {
    /// The shard id (index into the [`ShardMap`] lattice).
    pub shard: usize,
    /// Workers handed *into* this shard by the `Borrow` policy.
    pub handoffs_in: usize,
    /// Workers handed *out of* this shard by the `Borrow` policy.
    pub handoffs_out: usize,
    /// The shard's own full outcome (local worker ids): per-shard
    /// metrics, final platform state, local event log, audit verdict.
    pub outcome: SimOutcome,
}

/// Everything a drained [`ShardedService`] produces: the per-shard
/// outcomes plus their deterministic roll-up.
pub struct ShardedOutcome {
    /// City-wide metrics: counts and costs are exact sums over shards;
    /// `planning_time` is the summed planner wall-clock.
    pub metrics: SimMetrics,
    /// The merged, global-id event log.
    pub events: Vec<SimEvent>,
    /// Audit findings from every shard, each prefixed with its shard id
    /// (empty = every shard replayed clean).
    pub audit_errors: Vec<String>,
    /// Total cross-shard worker handoffs performed.
    pub handoffs: usize,
    /// Per-shard reports, in shard order.
    pub shards: Vec<ShardReport>,
}

impl ShardedOutcome {
    /// Σ over shards of committed planned distance — equals
    /// `metrics.driven_distance` after a drained run (each shard's
    /// audit asserts its own half of that equality).
    pub fn total_assigned_distance(&self) -> Cost {
        self.shards
            .iter()
            .map(|s| s.outcome.state.total_assigned_distance())
            .sum()
    }
}

/// One shard: a full platform plus the local↔global id seam.
struct Shard<'p> {
    service: MobilityService<'p>,
    /// Local worker id → global worker id.
    to_global: Vec<WorkerId>,
    /// Watermark into `service.events()`: everything before it has
    /// already been translated into the merged log.
    seen: usize,
    handoffs_in: usize,
    handoffs_out: usize,
}

/// Translates a shard-local event to global worker ids through the
/// shard's `local → global` map.
fn translate(to_global: &[WorkerId], ev: SimEvent) -> SimEvent {
    let g = |w: WorkerId| to_global[w.idx()];
    match ev {
        SimEvent::Assigned { t, r, w, delta } => SimEvent::Assigned {
            t,
            r,
            w: g(w),
            delta,
        },
        SimEvent::Pickup { t, r, w } => SimEvent::Pickup { t, r, w: g(w) },
        SimEvent::Delivery { t, r, w } => SimEvent::Delivery { t, r, w: g(w) },
        SimEvent::Unassigned { t, r, w, freed } => SimEvent::Unassigned {
            t,
            r,
            w: g(w),
            freed,
        },
        SimEvent::WorkerJoined { t, w } => SimEvent::WorkerJoined { t, w: g(w) },
        SimEvent::WorkerLeft { t, w } => SimEvent::WorkerLeft { t, w: g(w) },
        SimEvent::Rejected { .. } | SimEvent::Cancelled { .. } => ev,
    }
}

/// Occurrence time of a logged event (the merge key's first field).
fn event_time(ev: &SimEvent) -> Time {
    match *ev {
        SimEvent::Assigned { t, .. }
        | SimEvent::Rejected { t, .. }
        | SimEvent::Pickup { t, .. }
        | SimEvent::Delivery { t, .. }
        | SimEvent::Cancelled { t, .. }
        | SimEvent::Unassigned { t, .. }
        | SimEvent::WorkerJoined { t, .. }
        | SimEvent::WorkerLeft { t, .. } => t,
    }
}

/// The geo-sharded dispatch plane: `K` independent platforms, one
/// streaming entry point, global worker ids at the boundary.
pub struct ShardedService<'p> {
    map: ShardMap,
    shards: Vec<Shard<'p>>,
    oracle: Arc<dyn DistanceOracle>,
    policy: BoundaryPolicy,
    pool: WorkPool,
    /// Global worker id → (owning shard, local id). Ownership moves
    /// only through a handoff.
    owner: Vec<(usize, WorkerId)>,
    /// Request id → home shard (assigned at arrival, immutable).
    request_home: FxHashMap<RequestId, usize>,
    /// The merged, global-id event log.
    events: Vec<SimEvent>,
    last_time: Time,
    handoffs: usize,
}

impl<'p> ShardedService<'p> {
    /// Opens a sharded service at `start_time`. The initial fleet is
    /// partitioned by worker origin; `planners` is called once per
    /// shard (in shard order) to build that shard's planner — shards
    /// must not share mutable planner state, which is what lets
    /// broadcasts fan out over threads.
    ///
    /// # Panics
    /// If `workers` are not densely indexed by id (the same contract as
    /// [`urpsm_core::platform::PlatformState::new`]).
    pub fn new<F>(
        oracle: Arc<dyn DistanceOracle>,
        workers: Vec<Worker>,
        mut planners: F,
        config: ShardConfig,
        start_time: Time,
    ) -> Self
    where
        F: FnMut(usize) -> Box<dyn Planner + 'p>,
    {
        let k = config.shards.max(1);
        let bbox = road_network::geo::BoundingBox::around(
            (0..oracle.num_vertices()).map(|i| oracle.point(VertexId(i as u32))),
        );
        let map = ShardMap::new(bbox, k);

        // Partition the fleet by origin, handing out dense local ids in
        // global id order (so K = 1 is the identity mapping).
        let mut fleets: Vec<Vec<Worker>> = vec![Vec::new(); map.shards()];
        let mut to_global: Vec<Vec<WorkerId>> = vec![Vec::new(); map.shards()];
        let mut owner = Vec::with_capacity(workers.len());
        for (i, w) in workers.iter().enumerate() {
            assert_eq!(w.id.idx(), i, "workers must be densely indexed by id");
            let s = map.shard_of(oracle.point(w.origin));
            let local = WorkerId(fleets[s].len() as u32);
            fleets[s].push(Worker { id: local, ..*w });
            to_global[s].push(w.id);
            owner.push((s, local));
        }

        let shards = fleets
            .into_iter()
            .zip(to_global)
            .enumerate()
            .map(|(s, (fleet, to_global))| Shard {
                service: MobilityService::new(
                    Arc::clone(&oracle),
                    fleet,
                    planners(s),
                    config.sim.clone(),
                    start_time,
                ),
                to_global,
                seen: 0,
                handoffs_in: 0,
                handoffs_out: 0,
            })
            .collect();

        #[cfg(feature = "obs")]
        urpsm_obs::with(|m| m.shards_live.observe_max(k as u64));
        ShardedService {
            map,
            shards,
            oracle,
            policy: config.boundary,
            pool: WorkPool::new(config.threads),
            owner,
            request_home: FxHashMap::default(),
            events: Vec::new(),
            last_time: start_time,
            handoffs: 0,
        }
    }

    /// Number of shards `K`.
    #[inline]
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// The geographic partition.
    #[inline]
    pub fn map(&self) -> &ShardMap {
        &self.map
    }

    /// Current dispatch-plane time (the largest event time seen).
    #[inline]
    pub fn now(&self) -> Time {
        self.last_time
    }

    /// Cross-shard worker handoffs performed so far.
    #[inline]
    pub fn handoffs(&self) -> usize {
        self.handoffs
    }

    /// The merged, global-id event log accumulated so far.
    pub fn events(&self) -> &[SimEvent] {
        &self.events
    }

    /// The home shard of a vertex.
    #[inline]
    pub fn shard_of_vertex(&self, v: VertexId) -> usize {
        self.map.shard_of(self.oracle.point(v))
    }

    /// Where [`ShardedService::submit`] would route this event right
    /// now: `Some(shard)` for single-shard events, `None` for
    /// broadcasts (ticks). The ingestion plane's admission controller
    /// keys its per-shard queue depths and tick budgets off this
    /// (DESIGN.md §9) *before* deciding whether to submit at all.
    ///
    /// Mirrors `submit`'s fallbacks exactly: a cancellation for a
    /// not-yet-seen request and a departure for an unknown worker both
    /// resolve to shard 0, where `submit` would shrug them off.
    pub fn home_shard(&self, event: &PlatformEvent) -> Option<usize> {
        match event.routing() {
            EventRouting::Origin(anchor) => Some(self.shard_of_vertex(anchor)),
            EventRouting::Request(request) => {
                Some(self.request_home.get(&request).copied().unwrap_or(0))
            }
            EventRouting::Worker(worker) => {
                Some(self.owner.get(worker.idx()).map(|&(s, _)| s).unwrap_or(0))
            }
            EventRouting::Broadcast => None,
        }
    }

    /// Cuts a [`ServiceCheckpoint`] over the *merged* event log — the
    /// same progress fingerprint as
    /// [`MobilityService::checkpoint`], taken at the dispatch plane's
    /// deterministic merge boundary. Because the merged log and the
    /// plane clock are pure functions of the input event sequence, a
    /// recovery replay that reproduces this triple has reconstructed
    /// every shard byte-for-byte.
    pub fn checkpoint(&self) -> ServiceCheckpoint {
        ServiceCheckpoint {
            events: self.events.len() as u64,
            last_time: self.last_time,
            digest: urpsm_simulator::event_log_digest(&self.events),
        }
    }

    /// The shard currently owning a worker, if the worker exists.
    pub fn worker_shard(&self, w: WorkerId) -> Option<usize> {
        self.owner.get(w.idx()).map(|&(s, _)| s)
    }

    /// Feeds one event into the plane, routing it to its home shard
    /// by [`PlatformEvent::routing`] (broadcasting ticks), and returns
    /// everything it caused across all shards — translated to global
    /// worker ids and merged deterministically.
    pub fn submit(&mut self, event: PlatformEvent) -> Vec<ServiceReply> {
        let t = event.time().max(self.last_time);
        self.last_time = t;
        match event.routing() {
            EventRouting::Origin(anchor) => self.submit_by_origin(event, anchor, t),
            EventRouting::Request(request) => {
                // Unknown requests deterministically land on shard 0,
                // which shrugs them off exactly like `MobilityService`.
                let home = self.request_home.get(&request).copied().unwrap_or(0);
                #[cfg(feature = "obs")]
                obs_shard_event(home);
                self.shards[home].service.submit(event);
                self.collect(&[home])
            }
            EventRouting::Worker(worker) => {
                let Some(&(home, local)) = self.owner.get(worker.idx()) else {
                    // Unknown departure: advance shard 0, drop.
                    self.shards[0].service.submit(PlatformEvent::Tick { at: t });
                    return self.collect(&[0]);
                };
                let PlatformEvent::WorkerLeft { at, reassign, .. } = event else {
                    unreachable!("only departures route by worker");
                };
                #[cfg(feature = "obs")]
                obs_shard_event(home);
                self.shards[home].service.submit(PlatformEvent::WorkerLeft {
                    at,
                    worker: local,
                    reassign,
                });
                self.collect(&[home])
            }
            EventRouting::Broadcast => self.broadcast(event),
        }
    }

    /// The geographically anchored events: arrivals (by pickup) and
    /// joins (by come-online position).
    fn submit_by_origin(
        &mut self,
        event: PlatformEvent,
        anchor: VertexId,
        t: Time,
    ) -> Vec<ServiceReply> {
        let home = self.shard_of_vertex(anchor);
        #[cfg(feature = "obs")]
        obs_shard_event(home);
        match event {
            PlatformEvent::RequestArrived(r) => {
                self.request_home.insert(r.id, home);
                let mut out = Vec::new();
                if self.shards.len() > 1 {
                    if let BoundaryPolicy::Borrow { probe } = self.policy {
                        // Synchronize every shard to `t` so the probe
                        // reads current positions, then maybe borrow.
                        out = self.broadcast(PlatformEvent::Tick { at: t });
                        out.extend(self.maybe_borrow(&r, t, home, probe));
                    }
                }
                self.shards[home].service.submit(event);
                out.extend(self.collect(&[home]));
                out
            }
            PlatformEvent::WorkerJoined { at, worker } => {
                if worker.id.idx() != self.owner.len() {
                    // Malformed join: mirror `MobilityService` (which
                    // advances the clock, then drops the event).
                    self.shards[home].service.submit(PlatformEvent::Tick { at });
                    return self.collect(&[home]);
                }
                let local = WorkerId(self.shards[home].service.state().num_workers() as u32);
                self.owner.push((home, local));
                self.shards[home].to_global.push(worker.id);
                self.shards[home]
                    .service
                    .submit(PlatformEvent::WorkerJoined {
                        at,
                        worker: Worker {
                            id: local,
                            ..worker
                        },
                    });
                self.collect(&[home])
            }
            _ => unreachable!("only arrivals and joins route by origin"),
        }
    }

    /// Convenience: submits a whole pre-merged stream.
    pub fn submit_all<I>(&mut self, events: I) -> Vec<ServiceReply>
    where
        I: IntoIterator<Item = PlatformEvent>,
    {
        events.into_iter().flat_map(|e| self.submit(e)).collect()
    }

    /// Ends the stream: drains every shard (flush, route drain, audit),
    /// merges the tails, and rolls the per-shard metrics up.
    pub fn drain(mut self) -> ShardedOutcome {
        let single = self.shards.len() == 1;
        let mut batch: Vec<(Time, usize, usize)> = Vec::new();
        let mut tails: Vec<Vec<SimEvent>> = Vec::new();
        let mut reports = Vec::with_capacity(self.shards.len());
        for (s, shard) in self.shards.into_iter().enumerate() {
            let seen = shard.seen;
            let (handoffs_in, handoffs_out) = (shard.handoffs_in, shard.handoffs_out);
            let to_global = shard.to_global;
            let outcome = shard.service.drain();
            let tail: Vec<SimEvent> = outcome.events[seen..]
                .iter()
                .map(|&ev| translate(&to_global, ev))
                .collect();
            for (seq, ev) in tail.iter().enumerate() {
                batch.push((event_time(ev), seq, s));
            }
            tails.push(tail);
            reports.push(ShardReport {
                shard: s,
                handoffs_in,
                handoffs_out,
                outcome,
            });
        }
        if !single {
            batch.sort_unstable();
        }
        for &(_, seq, s) in &batch {
            self.events.push(tails[s][seq]);
        }

        let alpha = reports
            .first()
            .map(|r| r.outcome.metrics.unified_cost.alpha)
            .unwrap_or(1);
        let metrics = SimMetrics {
            requests: reports.iter().map(|r| r.outcome.metrics.requests).sum(),
            served: reports.iter().map(|r| r.outcome.metrics.served).sum(),
            rejected: reports.iter().map(|r| r.outcome.metrics.rejected).sum(),
            cancelled: reports.iter().map(|r| r.outcome.metrics.cancelled).sum(),
            unified_cost: UnifiedCost {
                alpha,
                total_distance: reports
                    .iter()
                    .map(|r| r.outcome.metrics.unified_cost.total_distance)
                    .sum(),
                total_penalty: reports
                    .iter()
                    .map(|r| r.outcome.metrics.unified_cost.total_penalty)
                    .sum(),
            },
            planning_time: reports
                .iter()
                .map(|r| r.outcome.metrics.planning_time)
                .sum(),
            driven_distance: reports
                .iter()
                .map(|r| r.outcome.metrics.driven_distance)
                .sum(),
            per_class: {
                // Shards share one class table, so the per-class
                // vectors line up index for index; merge element-wise.
                let mut merged: Vec<urpsm_simulator::metrics::ClassMetrics> = Vec::new();
                for r in &reports {
                    for (i, c) in r.outcome.metrics.per_class.iter().enumerate() {
                        if merged.len() <= i {
                            merged.resize(i + 1, Default::default());
                        }
                        merged[i].served += c.served;
                        merged[i].driven_distance += c.driven_distance;
                    }
                }
                merged
            },
        };
        let audit_errors = reports
            .iter()
            .flat_map(|r| {
                r.outcome
                    .audit_errors
                    .iter()
                    .map(move |e| format!("shard {}: {e}", r.shard))
            })
            .collect();
        ShardedOutcome {
            metrics,
            events: self.events,
            audit_errors,
            handoffs: self.handoffs,
            shards: reports,
        }
    }

    // ── internals ────────────────────────────────────────────────────

    /// Delivers `event` to every shard — over the [`WorkPool`] when
    /// it is parallel — and merges the replies.
    fn broadcast(&mut self, event: PlatformEvent) -> Vec<ServiceReply> {
        let k = self.shards.len();
        if self.pool.is_parallel() && k > 1 {
            let width = self.pool.threads().min(k);
            let chunk_len = k.div_ceil(width);
            let mut chunks: Vec<&mut [Shard<'p>]> = self.shards.chunks_mut(chunk_len).collect();
            let pool = WorkPool::new(chunks.len());
            pool.run_with(&mut chunks, |_, chunk| {
                for shard in chunk.iter_mut() {
                    shard.service.submit(event);
                }
            });
        } else {
            for shard in &mut self.shards {
                shard.service.submit(event);
            }
        }
        let all: Vec<usize> = (0..k).collect();
        self.collect(&all)
    }

    /// Gathers every untranslated event the touched shards produced,
    /// translates worker ids to global, and appends to the merged log.
    /// A single-shard step passes through verbatim; a multi-shard step
    /// is ordered by `(time, event_seq, shard_id)` — deterministic
    /// because each shard's log is deterministic and the key is total.
    fn collect(&mut self, touched: &[usize]) -> Vec<ServiceReply> {
        let mut batch: Vec<(Time, usize, usize, SimEvent)> = Vec::new();
        for &s in touched {
            let shard = &mut self.shards[s];
            let log = shard.service.events();
            for (seq, &ev) in log[shard.seen..].iter().enumerate() {
                let ev = translate(&shard.to_global, ev);
                batch.push((event_time(&ev), seq, s, ev));
            }
            shard.seen = log.len();
        }
        if touched.len() > 1 {
            batch.sort_unstable_by_key(|&(t, seq, s, _)| (t, seq, s));
        }
        let out: Vec<SimEvent> = batch.into_iter().map(|(_, _, _, ev)| ev).collect();
        self.events.extend_from_slice(&out);
        out
    }

    /// The `Borrow` probe for one request: scan the `probe` nearest
    /// foreign shards' read planes for an idle worker that strictly
    /// beats every home candidate on straight-line pickup distance, and
    /// hand the winner off to the home shard. All reads are against
    /// shard snapshots at the request's arrival time (every shard was
    /// just ticked to `t`), so the probe is deterministic.
    fn maybe_borrow(
        &mut self,
        r: &Request,
        t: Time,
        home: usize,
        probe: usize,
    ) -> Vec<ServiceReply> {
        #[cfg(feature = "obs")]
        urpsm_obs::with(|m| m.borrow_probes.inc());
        let origin_p = self.oracle.point(r.origin);
        let direct = self.oracle.dis(r.origin, r.destination);
        let mut cands = CandidateBuf::new();

        // Best straight-line pickup distance any home candidate offers.
        // `candidate_workers` is the eligibility seam, so a borrow probe
        // respects the request's class constraint on both sides of the
        // shard boundary for free.
        let home_state = self.shards[home].service.state();
        let local_best = home_state
            .candidate_workers(r, direct, &mut cands)
            .iter()
            .map(|w| {
                self.oracle
                    .point(home_state.agent(w).route.start_vertex())
                    .euclidean_m(&origin_p)
            })
            .fold(f64::INFINITY, f64::min);

        // Best idle foreign candidate across the probed shards.
        let mut best: Option<(f64, usize, WorkerId)> = None;
        let order = self.map.nearest_order(origin_p);
        for &s in order.iter().filter(|&&s| s != home).take(probe) {
            let state = self.shards[s].service.state();
            for w in state.candidate_workers(r, direct, &mut cands).iter() {
                let agent = state.agent(w);
                if !agent.route.is_empty() {
                    continue; // only idle workers change jurisdiction
                }
                let d = self
                    .oracle
                    .point(agent.route.start_vertex())
                    .euclidean_m(&origin_p);
                if best.is_none_or(|(bd, _, _)| d < bd) {
                    best = Some((d, s, w));
                }
            }
        }

        let Some((d, src, local)) = best else {
            return Vec::new();
        };
        if d >= local_best {
            return Vec::new(); // ties stay home
        }
        let Some(ticket) = self.shards[src].service.handoff_worker(local) else {
            return Vec::new(); // raced into busyness: impossible today, safe anyway
        };
        let global = self.shards[src].to_global[local.idx()];
        let new_local = WorkerId(self.shards[home].service.state().num_workers() as u32);
        self.owner[global.idx()] = (home, new_local);
        self.shards[home].to_global.push(global);
        self.shards[home]
            .service
            .submit(PlatformEvent::WorkerJoined {
                at: t,
                worker: Worker {
                    id: new_local,
                    origin: ticket.position,
                    capacity: ticket.capacity,
                    class: ticket.class,
                },
            });
        self.handoffs += 1;
        self.shards[src].handoffs_out += 1;
        self.shards[home].handoffs_in += 1;
        #[cfg(feature = "obs")]
        urpsm_obs::with(|m| {
            m.borrow_wins.inc();
            m.shard_handoffs.inc();
            m.ring.record(
                urpsm_obs::TraceKind::ShardHandoff,
                global.idx() as u64,
                src as u64,
                home as u64,
                0,
            );
        });
        // Two single-shard (verbatim) collects, source first, so the
        // merged log always reads departure-then-rejoin — a sorted
        // two-shard merge would flip them whenever `home < src`.
        let mut out = self.collect(&[src]);
        out.extend(self.collect(&[home]));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use road_network::geo::Point;
    use road_network::matrix::MatrixOracle;
    use urpsm_core::event::ReassignPolicy;
    use urpsm_core::planner::PruneGreedyDp;

    /// A 1 m-spaced line of `n` vertices, 100 cs per edge, 1 m/s top
    /// speed — the same metric as the simulator's own tests. With
    /// K = 2 the west half (x < n/2) is shard 0, the east half shard 1.
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

    fn sharded(
        origins: &[u32],
        shards: usize,
        boundary: BoundaryPolicy,
        threads: usize,
    ) -> ShardedService<'static> {
        ShardedService::new(
            line_oracle(50),
            fleet(origins),
            |_| Box::new(PruneGreedyDp::new()),
            ShardConfig {
                shards,
                boundary,
                threads,
                sim: SimConfig::default(),
            },
            0,
        )
    }

    #[test]
    fn fleet_partitions_by_origin_and_ids_stay_global() {
        let svc = sharded(&[2, 48, 4], 2, BoundaryPolicy::Strict, 1);
        assert_eq!(svc.num_shards(), 2);
        assert_eq!(svc.worker_shard(WorkerId(0)), Some(0));
        assert_eq!(svc.worker_shard(WorkerId(1)), Some(1));
        assert_eq!(svc.worker_shard(WorkerId(2)), Some(0));
        assert_eq!(svc.worker_shard(WorkerId(9)), None);
        assert_eq!(svc.shard_of_vertex(VertexId(0)), 0);
        assert_eq!(svc.shard_of_vertex(VertexId(49)), 1);
    }

    #[test]
    fn strict_policy_keeps_planning_shard_local() {
        // Shard 0 has no workers; shard 1 idles a worker at vertex 30.
        let mut svc = sharded(&[45, 30], 2, BoundaryPolicy::Strict, 1);
        let replies = svc.submit(PlatformEvent::RequestArrived(req(0, 20, 10, 0, 100_000)));
        assert!(
            replies
                .iter()
                .any(|e| matches!(e, SimEvent::Rejected { r, .. } if *r == RequestId(0))),
            "strict sharding must reject a locally unservable request: {replies:?}"
        );
        assert_eq!(svc.handoffs(), 0);
        let out = svc.drain();
        assert!(out.audit_errors.is_empty());
        assert_eq!(out.metrics.rejected, 1);
        assert_eq!(out.metrics.requests, 1);
    }

    #[test]
    fn borrow_policy_hands_an_idle_border_worker_off() {
        // Same geometry as the strict test, but with borrowing: the
        // idle worker at vertex 30 (shard 1, global id 1) must cross
        // the seam and serve the shard-0 request.
        let mut svc = sharded(&[45, 30], 2, BoundaryPolicy::Borrow { probe: 3 }, 1);
        let replies = svc.submit(PlatformEvent::RequestArrived(req(0, 20, 10, 0, 100_000)));
        assert!(
            replies
                .iter()
                .any(|e| matches!(e, SimEvent::Assigned { r, w, .. }
                    if *r == RequestId(0) && *w == WorkerId(1))),
            "borrow must rescue the request with global worker 1: {replies:?}"
        );
        // The handoff is visible in the log as a departure + a join of
        // the same global worker.
        assert!(replies
            .iter()
            .any(|e| matches!(e, SimEvent::WorkerLeft { w, .. } if *w == WorkerId(1))));
        assert!(replies
            .iter()
            .any(|e| matches!(e, SimEvent::WorkerJoined { w, .. } if *w == WorkerId(1))));
        assert_eq!(svc.handoffs(), 1);
        assert_eq!(svc.worker_shard(WorkerId(1)), Some(0));

        let out = svc.drain();
        assert_eq!(out.audit_errors, Vec::<String>::new());
        assert_eq!(out.metrics.served, 1);
        assert_eq!(out.metrics.driven_distance, out.total_assigned_distance());
        assert_eq!(out.shards[0].handoffs_in, 1);
        assert_eq!(out.shards[1].handoffs_out, 1);
    }

    #[test]
    fn borrow_ties_and_busy_workers_stay_home() {
        // Shard 0's own worker at vertex 20 is strictly closer than the
        // foreign one at 30: no handoff happens.
        let mut svc = sharded(&[20, 30], 2, BoundaryPolicy::Borrow { probe: 3 }, 1);
        let replies = svc.submit(PlatformEvent::RequestArrived(req(0, 18, 10, 0, 100_000)));
        assert!(replies
            .iter()
            .any(|e| matches!(e, SimEvent::Assigned { w, .. } if *w == WorkerId(0))));
        assert_eq!(svc.handoffs(), 0);

        // A busy foreign worker never crosses, even when it is closer:
        // occupy worker 1 with an eastbound trip, then ask from shard 0.
        svc.submit(PlatformEvent::RequestArrived(req(1, 30, 45, 100, 100_000)));
        let replies = svc.submit(PlatformEvent::RequestArrived(req(2, 24, 10, 200, 10_000)));
        assert_eq!(svc.handoffs(), 0);
        assert!(
            replies
                .iter()
                .any(|e| matches!(e, SimEvent::Assigned { r, w, .. }
                    if *r == RequestId(2) && *w == WorkerId(0))),
            "{replies:?}"
        );
        let out = svc.drain();
        assert!(out.audit_errors.is_empty());
    }

    #[test]
    fn departures_follow_handed_off_workers() {
        let mut svc = sharded(&[45, 30], 2, BoundaryPolicy::Borrow { probe: 3 }, 1);
        svc.submit(PlatformEvent::RequestArrived(req(0, 20, 10, 0, 100_000)));
        assert_eq!(svc.worker_shard(WorkerId(1)), Some(0));
        // Worker 1 now lives in shard 0; its departure must route there
        // and strip the pending request for re-offer (which only worker
        // 1 could serve — so it is re-rejected by the empty shard).
        let replies = svc.submit(PlatformEvent::WorkerLeft {
            at: 100,
            worker: WorkerId(1),
            reassign: ReassignPolicy::Reassign,
        });
        assert!(replies
            .iter()
            .any(|e| matches!(e, SimEvent::Unassigned { r, w, .. }
                if *r == RequestId(0) && *w == WorkerId(1))));
        let out = svc.drain();
        assert!(out.audit_errors.is_empty(), "{:?}", out.audit_errors);
        assert_eq!(out.metrics.served + out.metrics.rejected, 1);
    }

    #[test]
    fn parallel_broadcast_is_byte_identical_to_sequential() {
        let run = |threads: usize| {
            let mut svc = sharded(
                &[2, 14, 28, 44],
                4,
                BoundaryPolicy::Borrow { probe: 3 },
                threads,
            );
            for i in 0..10u32 {
                let o = (i * 5) % 48;
                let d = (o + 3) % 50;
                svc.submit(PlatformEvent::RequestArrived(req(
                    i,
                    o,
                    d,
                    u64::from(i) * 400,
                    u64::from(i) * 400 + 60_000,
                )));
                svc.submit(PlatformEvent::Tick {
                    at: u64::from(i) * 400 + 200,
                });
            }
            svc.drain()
        };
        let seq = run(1);
        let par = run(4);
        assert!(seq.audit_errors.is_empty(), "{:?}", seq.audit_errors);
        assert_eq!(seq.events, par.events, "fan-out width changed the log");
        assert_eq!(seq.metrics.served, par.metrics.served);
        assert_eq!(
            seq.metrics.unified_cost.value(),
            par.metrics.unified_cost.value()
        );
        assert_eq!(seq.handoffs, par.handoffs);
    }

    #[test]
    fn malformed_fleet_events_are_dropped_not_fatal() {
        let mut svc = sharded(&[5], 2, BoundaryPolicy::Strict, 1);
        // A join that skips a global id and an unknown departure: both
        // dropped (the clock still advances somewhere deterministic).
        assert!(svc
            .submit(PlatformEvent::WorkerJoined {
                at: 10,
                worker: Worker {
                    class: Default::default(),
                    id: WorkerId(7),
                    origin: VertexId(3),
                    capacity: 2,
                },
            })
            .is_empty());
        assert!(svc
            .submit(PlatformEvent::WorkerLeft {
                at: 20,
                worker: WorkerId(99),
                reassign: ReassignPolicy::Drain,
            })
            .is_empty());
        // A dense join lands in its home shard with a fresh local id.
        let replies = svc.submit(PlatformEvent::WorkerJoined {
            at: 30,
            worker: Worker {
                class: Default::default(),
                id: WorkerId(1),
                origin: VertexId(48),
                capacity: 4,
            },
        });
        assert!(matches!(
            replies[..],
            [SimEvent::WorkerJoined { w: WorkerId(1), .. }]
        ));
        assert_eq!(svc.worker_shard(WorkerId(1)), Some(1));
        let out = svc.drain();
        assert!(out.audit_errors.is_empty());
    }

    #[test]
    fn home_shard_mirrors_submit_routing() {
        let mut svc = sharded(&[5, 45], 2, BoundaryPolicy::Strict, 1);
        let arrival = PlatformEvent::RequestArrived(req(0, 40, 46, 0, 100_000));
        assert_eq!(svc.home_shard(&arrival), Some(1));
        // Before the arrival is submitted the cancel falls back to
        // shard 0 (exactly where submit would shrug it off) …
        let cancel = PlatformEvent::RequestCancelled {
            at: 100,
            request: RequestId(0),
        };
        assert_eq!(svc.home_shard(&cancel), Some(0));
        svc.submit(arrival);
        // … and follows the request home afterwards.
        assert_eq!(svc.home_shard(&cancel), Some(1));
        assert_eq!(
            svc.home_shard(&PlatformEvent::WorkerLeft {
                at: 200,
                worker: WorkerId(1),
                reassign: ReassignPolicy::Drain,
            }),
            Some(1)
        );
        assert_eq!(
            svc.home_shard(&PlatformEvent::WorkerLeft {
                at: 200,
                worker: WorkerId(99),
                reassign: ReassignPolicy::Drain,
            }),
            Some(0),
            "unknown workers fall back to shard 0, like submit"
        );
        assert_eq!(svc.home_shard(&PlatformEvent::Tick { at: 300 }), None);
        let out = svc.drain();
        assert!(out.audit_errors.is_empty());
    }

    #[test]
    fn checkpoints_fingerprint_the_merged_log() {
        let feed = |svc: &mut ShardedService<'static>| {
            svc.submit(PlatformEvent::RequestArrived(req(0, 5, 10, 0, 100_000)));
            svc.submit(PlatformEvent::RequestArrived(req(1, 44, 40, 100, 100_000)));
            svc.submit(PlatformEvent::Tick { at: 500 });
        };
        let mut a = sharded(&[5, 45], 2, BoundaryPolicy::Strict, 1);
        let mut b = sharded(&[5, 45], 2, BoundaryPolicy::Strict, 1);
        feed(&mut a);
        feed(&mut b);
        assert_eq!(a.checkpoint(), b.checkpoint());
        assert_eq!(a.checkpoint().events, a.events().len() as u64);
        let before = b.checkpoint();
        b.submit(PlatformEvent::RequestCancelled {
            at: 600,
            request: RequestId(1),
        });
        assert_ne!(before.digest, b.checkpoint().digest);
    }

    #[test]
    fn cancellations_follow_their_request_home() {
        let mut svc = sharded(&[5, 45], 2, BoundaryPolicy::Strict, 1);
        svc.submit(PlatformEvent::RequestArrived(req(0, 40, 46, 0, 100_000)));
        let replies = svc.submit(PlatformEvent::RequestCancelled {
            at: 100,
            request: RequestId(0),
        });
        assert!(replies
            .iter()
            .any(|e| matches!(e, SimEvent::Cancelled { r, .. } if *r == RequestId(0))));
        // Unknown request: deterministically shrugged off.
        assert!(svc
            .submit(PlatformEvent::RequestCancelled {
                at: 200,
                request: RequestId(77),
            })
            .is_empty());
        let out = svc.drain();
        assert!(out.audit_errors.is_empty());
        assert_eq!(out.metrics.cancelled, 1);
    }
}
