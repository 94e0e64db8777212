//! The decision phase (Algo. 4).
//!
//! For each candidate worker, compute the Euclidean lower bound `LBΔ*`
//! of the increased distance that serving the new request would cost
//! (§5.1, one real `dis` query shared across all workers). The request
//! is rejected outright when its penalty is cheaper than the best
//! possible service cost: `p_r < α · min LB` — serving could only ever
//! cost more than rejecting.
//!
//! The returned list of `(LBΔ*, worker)` pairs, sorted ascending, is
//! reused by the planning phase as the scan order for the pre-ordered
//! pruning of Lemma 8.

use road_network::Cost;

use crate::lower_bound::insertion_lower_bound;
use crate::platform::{EligibleCandidates, FleetView, PlatformState};
use crate::shortlist::LowerBoundSink;
use crate::types::{Request, WorkerId};

/// Output of the decision phase.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecisionOutcome {
    /// `(LBΔ*, worker)` sorted ascending by bound then worker id.
    /// Workers for which even the relaxed checks admit no placement
    /// are omitted — no exact placement can exist either.
    pub lower_bounds: Vec<(Cost, WorkerId)>,
    /// `true` when the request should be rejected: either no worker
    /// can possibly serve it, or `p_r < α · min LB`.
    pub reject: bool,
}

impl DecisionOutcome {
    /// The smallest lower bound, if any worker can serve.
    pub fn min_lower_bound(&self) -> Option<Cost> {
        self.lower_bounds.first().map(|(lb, _)| *lb)
    }
}

/// The one Algo. 4 inner loop every scan shares: compute `LBΔ*` for
/// each yielded worker and append survivors to `out`. The decision
/// phase and the planner engine both call this, so the lower-bound
/// filter can never diverge between them. Generic over the sink so the
/// planner engine can fill its reusable SoA
/// [`crate::shortlist::Shortlist`] with the very same loop that builds
/// the public `Vec`-based [`DecisionOutcome`].
pub(crate) fn collect_lower_bounds<S: LowerBoundSink>(
    view: FleetView<'_>,
    r: &Request,
    direct: Cost,
    workers: impl Iterator<Item = WorkerId>,
    out: &mut S,
) {
    for w in workers {
        let agent = view.agent(w);
        if let Some(lb) = insertion_lower_bound(
            &agent.route,
            agent.worker.capacity,
            r,
            direct,
            view.oracle(),
        ) {
            out.push_bound(lb, w);
        }
    }
}

/// Runs Algo. 4 over the platform's eligibility shortlist. `direct` is
/// `L = dis(o_r, d_r)`, queried once by the caller. Taking the opaque
/// [`EligibleCandidates`] view (rather than raw worker ids) means every
/// caller — in-tree planners and external baselines alike — can only
/// score workers the platform seam cleared.
pub fn decision_phase(
    alpha: u64,
    state: &PlatformState,
    candidates: EligibleCandidates<'_>,
    r: &Request,
    direct: Cost,
) -> DecisionOutcome {
    let mut lower_bounds = Vec::with_capacity(candidates.len());
    collect_lower_bounds(
        state.view(),
        r,
        direct,
        candidates.iter(),
        &mut lower_bounds,
    );
    lower_bounds.sort_unstable();
    let reject = economic_reject(alpha, r, lower_bounds.first().map(|(lb, _)| *lb));
    DecisionOutcome {
        lower_bounds,
        reject,
    }
}

/// The economic rejection test of Algo. 4, shared by [`decision_phase`]
/// and the planner engine's SoA shortlist path: reject when no worker
/// can serve at all, or when `p_r < α · min LB` — serving could only
/// ever cost more than rejecting.
pub(crate) fn economic_reject(alpha: u64, r: &Request, min_lb: Option<Cost>) -> bool {
    match min_lb {
        None => true,
        Some(min_lb) => r.penalty < alpha.saturating_mul(min_lb),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::{RequestId, Time, Worker};
    use road_network::geo::Point;
    use road_network::matrix::MatrixOracle;
    use road_network::oracle::DistanceOracle;
    use road_network::VertexId;
    use std::sync::Arc;

    /// Road distances 2× the Euclidean time (so LB < Δ*).
    fn oracle(n: usize) -> Arc<dyn DistanceOracle> {
        let rows: Vec<Vec<u64>> = (0..n)
            .map(|u| (0..n).map(|v| (u.abs_diff(v) as u64) * 200).collect())
            .collect();
        let points = (0..n).map(|k| Point::new(k as f64, 0.0)).collect();
        Arc::new(MatrixOracle::from_matrix(&rows, points, 1.0))
    }

    fn state(worker_vertices: &[u32]) -> PlatformState {
        let o = oracle(100);
        let ws: Vec<Worker> = worker_vertices
            .iter()
            .enumerate()
            .map(|(i, &v)| Worker {
                class: Default::default(),
                id: WorkerId(i as u32),
                origin: VertexId(v),
                capacity: 4,
            })
            .collect();
        PlatformState::new(o, &ws, 10.0, 0)
    }

    fn request(o: u32, d: u32, deadline: Time, penalty: u64) -> Request {
        Request {
            class: Default::default(),
            id: RequestId(0),
            origin: VertexId(o),
            destination: VertexId(d),
            release: 0,
            deadline,
            penalty,
            capacity: 1,
        }
    }

    #[test]
    fn bounds_sorted_and_closest_worker_first() {
        let state = state(&[0, 10, 40]);
        let r = request(12, 20, 100_000, 1_000_000);
        let cands = vec![WorkerId(0), WorkerId(1), WorkerId(2)];
        let direct = state.oracle().dis(r.origin, r.destination);
        let out = decision_phase(1, &state, EligibleCandidates::from_ids(&cands), &r, direct);
        assert!(!out.reject);
        assert_eq!(out.lower_bounds.len(), 3);
        // Worker 1 (at x=10) is nearest the pickup at x=12.
        assert_eq!(out.lower_bounds[0].1, WorkerId(1));
        let lbs: Vec<u64> = out.lower_bounds.iter().map(|(lb, _)| *lb).collect();
        let mut sorted = lbs.clone();
        sorted.sort_unstable();
        assert_eq!(lbs, sorted);
    }

    #[test]
    fn cheap_penalty_triggers_rejection() {
        let state = state(&[0]);
        // Serving costs at least the LB (≈ euclidean 50+8); a penalty of
        // 1 is always cheaper, so reject.
        let r = request(50, 58, 100_000, 1);
        let direct = state.oracle().dis(r.origin, r.destination);
        let out = decision_phase(
            1,
            &state,
            EligibleCandidates::from_ids(&[WorkerId(0)]),
            &r,
            direct,
        );
        assert!(out.reject);
        assert!(out.min_lower_bound().unwrap() > 1);
    }

    #[test]
    fn alpha_zero_never_rejects_by_economics() {
        let state = state(&[0]);
        let r = request(50, 58, 100_000, 1);
        let direct = state.oracle().dis(r.origin, r.destination);
        let out = decision_phase(
            0,
            &state,
            EligibleCandidates::from_ids(&[WorkerId(0)]),
            &r,
            direct,
        );
        assert!(!out.reject, "α = 0 makes any service free in Eq. 1");
    }

    #[test]
    fn no_candidates_rejects() {
        let state = state(&[0]);
        let r = request(5, 6, 100_000, 1_000);
        let out = decision_phase(1, &state, EligibleCandidates::from_ids(&[]), &r, 200);
        assert!(out.reject);
        assert!(out.min_lower_bound().is_none());
    }

    #[test]
    fn impossible_deadline_prunes_worker_from_list() {
        let state = state(&[0, 50]);
        // Pickup at 49 must happen almost immediately: worker 0 (at 0)
        // can't even straight-line there, worker 1 (at 50) can.
        let r = request(49, 50, 300, 1_000_000);
        let direct = state.oracle().dis(r.origin, r.destination); // 200
        let out = decision_phase(
            1,
            &state,
            EligibleCandidates::from_ids(&[WorkerId(0), WorkerId(1)]),
            &r,
            direct,
        );
        assert_eq!(out.lower_bounds.len(), 1);
        assert_eq!(out.lower_bounds[0].1, WorkerId(1));
    }
}
