//! `GreedyDP` and `pruneGreedyDP` (Algo. 5).
//!
//! Both share one engine; the only difference is whether the planning
//! phase applies the pre-ordered pruning of Lemma 8. The tie-break on
//! equal `Δ*` is the smaller worker id, and the pruning breaks only on
//! a *strict* `Δ* < LB`, which together make the two planners
//! extensionally identical (same worker, same plan, same final cost) —
//! property-tested in `tests/planner_equivalence.rs`. Only the number
//! of shortest-distance queries differs, which is precisely the paper's
//! claim (§6.2: 2.76× average speed-up, tens of billions of queries
//! saved).
//!
//! The engine is the paper's sequential scan: one `PlanScratch`, the
//! candidates in ascending `(LBΔ*, worker)` order, and one running
//! best. The §6.2 query count is a property of exactly this order.

use road_network::oracle::DistanceOracle;
use road_network::{Cost, INF};

use crate::decision::{collect_lower_bounds, economic_reject};
use crate::insertion::linear_dp_insertion_with;
use crate::platform::{CandidateBuf, FleetView, Outcome, PlatformState};
use crate::route::InsertionPlan;
use crate::types::{Request, WorkerId};

use super::scratch::PlanScratch;
use super::{reply_one, Planner, PlannerConfig, PlannerReplies};

/// The best placement found so far: `(Δ*, worker, plan)`.
type Best = Option<(Cost, WorkerId, InsertionPlan)>;

/// Shared engine for the two DP planners.
#[derive(Debug)]
struct DpEngine {
    cfg: PlannerConfig,
    /// The planning arena: the SoA candidate shortlist, the DP distance
    /// columns, and the congestion probe route — everything a
    /// steady-state planned insertion needs, so the hot path never
    /// allocates (gated by `benches/alloc.rs`).
    scratch: PlanScratch,
    candidates: CandidateBuf,
}

impl Default for DpEngine {
    fn default() -> Self {
        DpEngine::new(PlannerConfig::default())
    }
}

impl DpEngine {
    fn new(cfg: PlannerConfig) -> Self {
        DpEngine {
            cfg,
            scratch: PlanScratch::default(),
            candidates: CandidateBuf::new(),
        }
    }

    fn handle(&mut self, prune: bool, state: &mut PlatformState, r: &Request) -> Outcome {
        let DpEngine {
            cfg,
            scratch,
            candidates,
        } = self;
        #[cfg(feature = "obs")]
        let obs_sw = urpsm_obs::Stopwatch::start();
        let oracle = state.oracle_arc();
        let direct = oracle.dis(r.origin, r.destination);
        if direct >= INF {
            #[cfg(feature = "obs")]
            record_plan_obs(&obs_sw, r, 0, None);
            state.reject(r);
            return Outcome::Rejected;
        }

        // Phase 0 (Algo. 5 line 3): the platform's eligibility seam —
        // grid reachability joined with the class filter — handed back
        // as an opaque view. This is the only place the engine learns
        // which workers may compete; it cannot add its own.
        let eligible = state.candidate_workers(r, direct, candidates);

        // Phase 1 (Algo. 4): lower bounds into the scratch-resident SoA
        // shortlist, sorted, then the economic gate — the same
        // lower-bound loop, sort order, and test as `decision_phase`,
        // with every buffer `clear()`-reused instead of freshly
        // allocated.
        scratch.shortlist.clear();
        collect_lower_bounds(
            state.view(),
            r,
            direct,
            eligible.iter(),
            &mut scratch.shortlist,
        );
        scratch.shortlist.sort_by_bound();
        if economic_reject(cfg.alpha, r, scratch.shortlist.min_lb()) {
            #[cfg(feature = "obs")]
            record_plan_obs(&obs_sw, r, eligible.len(), None);
            state.reject(r);
            return Outcome::Rejected;
        }
        // Phase 2 (Algo. 5 lines 6–10): the exact scan in ascending LB
        // order.
        let best = probe_sequential(scratch, prune, state.view(), r, &*oracle);

        let outcome = match best {
            Some((delta, w, plan)) => {
                if cfg.strict_economics && cfg.alpha.saturating_mul(delta) > r.penalty {
                    state.reject(r);
                    Outcome::Rejected
                } else {
                    state.commit(w, r, &plan);
                    Outcome::Assigned { worker: w, delta }
                }
            }
            None => {
                state.reject(r);
                Outcome::Rejected
            }
        };
        #[cfg(feature = "obs")]
        record_plan_obs(
            &obs_sw,
            r,
            eligible.len(),
            match &outcome {
                Outcome::Assigned { delta, .. } => Some(*delta),
                _ => None,
            },
        );
        outcome
    }
}

/// Record one planner invocation into the registry: latency and
/// shortlist-size histograms, outcome counters, and a `PlanRequest`
/// trace record. The trace's probe word carries the *cumulative*
/// `plan_probes` counter at record time — consumers diff consecutive
/// records to recover per-request probe counts.
#[cfg(feature = "obs")]
fn record_plan_obs(sw: &urpsm_obs::Stopwatch, r: &Request, shortlist: usize, delta: Option<Cost>) {
    urpsm_obs::with(|m| {
        if let Some(ns) = sw.elapsed_ns() {
            m.plan_latency_ns.record(ns);
        }
        m.plan_requests.inc();
        m.plan_shortlist_len.record(shortlist as u64);
        match delta {
            Some(_) => m.plan_assigned.inc(),
            None => m.plan_rejected.inc(),
        }
        m.ring.record(
            urpsm_obs::TraceKind::PlanRequest,
            u64::from(r.id.0),
            shortlist as u64,
            m.plan_probes.get(),
            delta.unwrap_or(u64::MAX),
        );
    });
}

/// The sequential planning phase — Algo. 5's loop, verbatim, scanning
/// the scratch-resident shortlist in ascending `(LB, worker)` order.
fn probe_sequential(
    scratch: &mut PlanScratch,
    prune: bool,
    view: FleetView<'_>,
    r: &Request,
    oracle: &dyn DistanceOracle,
) -> Best {
    let PlanScratch {
        shortlist,
        insertion,
        probe,
        ..
    } = scratch;
    let mut best: Best = None;
    for rank in 0..shortlist.len() {
        let (lb, w) = shortlist.get(rank);
        if prune {
            // Lemma 8: every remaining worker's exact Δ* is at
            // least its LB, which already exceeds the best found.
            if let Some((best_delta, _, _)) = &best {
                if *best_delta < lb {
                    break;
                }
            }
        }
        let agent = view.agent(w);
        #[cfg(feature = "obs")]
        urpsm_obs::with(|m| m.plan_probes.inc());
        if let Some(plan) =
            linear_dp_insertion_with(insertion, &agent.route, agent.worker.capacity, r, oracle)
        {
            // Free-flow plans are optimistic under a congestion
            // profile: re-check the stretched schedule before letting
            // the candidate compete (DESIGN.md §7). Free-flow and
            // flat-profile runs skip this branch entirely. The probe
            // route is scratch storage — `clone_from` reuses its
            // buffers instead of cloning afresh.
            if agent.route.time_dependent()
                && !agent
                    .route
                    .insertion_feasible_with(probe, &plan, r, agent.worker.capacity)
            {
                continue;
            }
            let better = match &best {
                None => true,
                Some((bd, bw, _)) => (plan.delta, w) < (*bd, *bw),
            };
            if better {
                // Lemma 8's bound tightens only when the best Δ strictly
                // drops; a tie won by a smaller worker id leaves it put.
                #[cfg(feature = "obs")]
                if prune && best.as_ref().is_none_or(|(bd, _, _)| plan.delta < *bd) {
                    urpsm_obs::with(|m| m.plan_bound_improvements.inc());
                }
                best = Some((plan.delta, w, plan));
            }
        }
    }
    best
}

/// The paper's full solution: `pruneGreedyDP` (Algo. 5).
#[derive(Debug, Default)]
pub struct PruneGreedyDp {
    engine: DpEngine,
}

impl PruneGreedyDp {
    /// Planner with default configuration (`α = 1`).
    pub fn new() -> Self {
        Self::default()
    }

    /// Planner with an explicit configuration.
    pub fn from_config(cfg: PlannerConfig) -> Self {
        PruneGreedyDp {
            engine: DpEngine::new(cfg),
        }
    }
}

impl Planner for PruneGreedyDp {
    fn name(&self) -> &'static str {
        "pruneGreedyDP"
    }

    fn on_request(&mut self, state: &mut PlatformState, r: &Request) -> PlannerReplies {
        reply_one(r.id, self.engine.handle(true, state, r))
    }

    // Default `on_cancel`/`on_worker_change` hooks are correct here:
    // decisions are immediate (nothing buffered to withdraw) and every
    // decision re-reads the fleet through the grid index.
}

/// The ablation baseline: `GreedyDP` — identical to [`PruneGreedyDp`]
/// but evaluates the exact insertion for every candidate worker
/// (no Lemma 8 pruning).
#[derive(Debug, Default)]
pub struct GreedyDp {
    engine: DpEngine,
}

impl GreedyDp {
    /// Planner with default configuration (`α = 1`).
    pub fn new() -> Self {
        Self::default()
    }

    /// Planner with an explicit configuration.
    pub fn from_config(cfg: PlannerConfig) -> Self {
        GreedyDp {
            engine: DpEngine::new(cfg),
        }
    }
}

impl Planner for GreedyDp {
    fn name(&self) -> &'static str {
        "GreedyDP"
    }

    fn on_request(&mut self, state: &mut PlatformState, r: &Request) -> PlannerReplies {
        reply_one(r.id, self.engine.handle(false, state, r))
    }

    // Default lifecycle hooks: immediate decisions, fleet re-read from
    // the grid index on every request (same rationale as PruneGreedyDp).
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::{RequestId, Time, Worker};
    use road_network::geo::Point;
    use road_network::matrix::MatrixOracle;
    use road_network::oracle::CountingOracle;
    use road_network::VertexId;
    use std::sync::Arc;

    fn line_counting_oracle(n: usize) -> Arc<CountingOracle<MatrixOracle>> {
        let rows: Vec<Vec<u64>> = (0..n)
            .map(|u| (0..n).map(|v| (u.abs_diff(v) as u64) * 150).collect())
            .collect();
        let points = (0..n).map(|k| Point::new(k as f64, 0.0)).collect();
        Arc::new(CountingOracle::new(MatrixOracle::from_matrix(
            &rows, points, 1.0,
        )))
    }

    fn fresh_state(oracle: Arc<CountingOracle<MatrixOracle>>, origins: &[u32]) -> PlatformState {
        let ws: Vec<Worker> = origins
            .iter()
            .enumerate()
            .map(|(i, &v)| Worker {
                class: Default::default(),
                id: WorkerId(i as u32),
                origin: VertexId(v),
                capacity: 4,
            })
            .collect();
        PlatformState::new(oracle, &ws, 20.0, 0)
    }

    fn request(id: u32, o: u32, d: u32, deadline: Time, penalty: u64) -> Request {
        Request {
            class: Default::default(),
            id: RequestId(id),
            origin: VertexId(o),
            destination: VertexId(d),
            release: 0,
            deadline,
            penalty,
            capacity: 1,
        }
    }

    #[test]
    fn both_planners_pick_nearest_worker() {
        let oracle = line_counting_oracle(100);
        for mk in [0usize, 1] {
            let mut state = fresh_state(oracle.clone(), &[0, 40, 80]);
            let mut planner: Box<dyn Planner> = if mk == 0 {
                Box::new(GreedyDp::new())
            } else {
                Box::new(PruneGreedyDp::new())
            };
            let r = request(1, 42, 50, 100_000, 1_000_000);
            let out = planner.on_request(&mut state, &r);
            assert_eq!(out.len(), 1);
            match out[0].1 {
                Outcome::Assigned { worker, delta } => {
                    assert_eq!(worker, WorkerId(1), "{}", planner.name());
                    assert_eq!(delta, (2 + 8) * 150);
                }
                Outcome::Rejected => panic!("{} rejected", planner.name()),
            }
        }
    }

    #[test]
    fn pruning_saves_queries_with_same_outcomes() {
        let oracle = line_counting_oracle(200);
        let origins: Vec<u32> = (0..40).map(|i| i * 5).collect();

        let run = |prune: bool| -> (Vec<(RequestId, Outcome)>, u64) {
            oracle.reset();
            let mut state = fresh_state(oracle.clone(), &origins);
            let mut greedy = GreedyDp::new();
            let mut pruned = PruneGreedyDp::new();
            let mut outs = Vec::new();
            for (id, o, d) in [
                (1u32, 17u32, 60u32),
                (2, 100, 120),
                (3, 55, 42),
                (4, 199, 150),
            ] {
                let r = request(id, o, d, 1_000_000, u64::MAX / 4);
                let out = if prune {
                    pruned.on_request(&mut state, &r)
                } else {
                    greedy.on_request(&mut state, &r)
                };
                outs.extend(out);
            }
            (outs, oracle.stats().dis)
        };

        let (outs_greedy, q_greedy) = run(false);
        let (outs_pruned, q_pruned) = run(true);
        assert_eq!(outs_greedy, outs_pruned, "Lemma 8 must not change results");
        assert!(
            q_pruned < q_greedy,
            "pruning must save queries: {q_pruned} vs {q_greedy}"
        );
    }

    #[test]
    fn cheap_penalty_rejected_in_decision_phase() {
        let oracle = line_counting_oracle(100);
        let mut state = fresh_state(oracle, &[0]);
        let mut planner = PruneGreedyDp::new();
        // Service costs ≥ ~50·150 cs; penalty 10 is cheaper → reject.
        let r = request(1, 50, 55, 1_000_000, 10);
        let out = planner.on_request(&mut state, &r);
        assert_eq!(out[0].1, Outcome::Rejected);
        assert_eq!(state.rejected_count(), 1);
        assert_eq!(state.served_count(), 0);
    }

    #[test]
    fn strict_economics_extension_rejects_at_planning_time() {
        let oracle = line_counting_oracle(100);
        // Euclidean LB equals road distance on this metric? No: road is
        // 150/unit, euclid is 100/unit, so LB < Δ*. Pick a penalty
        // between LB and Δ*: decision accepts, strict planning rejects.
        let mut state = fresh_state(oracle.clone(), &[40]);
        let r = request(1, 50, 55, 1_000_000, 2_000); // LB≈1500+, Δ*=2250
        let mut lax = PruneGreedyDp::new();
        let out = lax.on_request(&mut state, &r);
        assert!(matches!(out[0].1, Outcome::Assigned { .. }));

        let mut state = fresh_state(oracle, &[40]);
        let mut strict = PruneGreedyDp::from_config(PlannerConfig {
            alpha: 1,
            strict_economics: true,
            ..PlannerConfig::default()
        });
        let out = strict.on_request(&mut state, &r);
        assert_eq!(out[0].1, Outcome::Rejected);
    }

    #[test]
    fn congestion_gate_rejects_stretched_infeasible_plans() {
        use road_network::congestion::CongestionProfile;
        let oracle = line_counting_oracle(100);
        let mut state = fresh_state(oracle, &[0]);
        state.set_congestion(Some(Arc::new(
            CongestionProfile::constant("x2", 2.0).unwrap(),
        )));
        let mut planner = PruneGreedyDp::new();
        // Free-flow delivery at 10·150 + 10·150 = 3000 ≤ 4000, but
        // the 2× profile pushes it to 6000: the gate must reject
        // instead of committing a deadline-violating route.
        let r = request(1, 10, 20, 4_000, u64::MAX / 4);
        let out = planner.on_request(&mut state, &r);
        assert_eq!(out[0].1, Outcome::Rejected);
        // With deadline room the same request is served, and the
        // reported Δ stays in free-flow units.
        let r = request(2, 10, 20, 20_000, u64::MAX / 4);
        let out = planner.on_request(&mut state, &r);
        match out[0].1 {
            Outcome::Assigned { delta, .. } => assert_eq!(delta, 3_000),
            Outcome::Rejected => panic!("feasible congested request rejected"),
        }
    }

    #[test]
    fn unreachable_pickup_rejected() {
        let oracle = line_counting_oracle(100);
        let mut state = fresh_state(oracle, &[0]);
        let mut planner = PruneGreedyDp::new();
        // Deadline so tight nobody reaches the pickup.
        let r = request(1, 90, 91, 200, 1_000_000);
        let out = planner.on_request(&mut state, &r);
        assert_eq!(out[0].1, Outcome::Rejected);
    }
}
