//! The URPSM problem model and the paper's solution.
//!
//! This crate is the primary contribution of *"A Unified Approach to
//! Route Planning for Shared Mobility"* (Tong et al., PVLDB'18) as a
//! library:
//!
//! * [`types`] — workers, requests, stops (Definitions 2–4).
//! * [`route`] — routes with the `arr/ddl/slack/picked/leg` schedule
//!   arrays of §4.3 and `O(n)` committed-insertion splicing.
//! * [`insertion`] — the three insertion operators: basic `O(n³)`
//!   (Algo. 1), naive DP `O(n²)` (Algo. 2) and linear DP `O(n)`
//!   (Algo. 3). All return identical plans; the linear one is the
//!   paper's contribution.
//! * [`lower_bound`] — the Euclidean lower bound `LBΔ*` of §5.1
//!   (Lemma 7 / Eq. 15–17): one real distance query per request.
//! * [`decision`] — the decision phase (Algo. 4): reject a request when
//!   its penalty is cheaper than the best-case service cost.
//! * [`platform`] — the shared mutable world (workers, routes, grid
//!   index) that planners operate on, plus commit/reject bookkeeping
//!   and the cancellation / fleet-churn mutations.
//! * [`planner`] — the [`planner::Planner`] trait and the paper's two
//!   solutions `GreedyDP` and `pruneGreedyDP` (Algo. 5).
//! * [`event`] — the typed [`event::PlatformEvent`] stream that the
//!   service layer (`MobilityService` in the simulator crate) consumes,
//!   making the online setting of §2 a first-class API: arrivals,
//!   cancellations, fleet churn and clock ticks.
//! * [`exec`] — dependency-free scoped-thread fan-out
//!   ([`exec::WorkPool`], [`exec::IndexFeed`]) for the shard broadcast
//!   and the experiment grid. The planners themselves are sequential.
//! * [`objective`] — the unified cost (Eq. 1) and the three objective
//!   reductions of §3.2, including the revenue identity Eq. (2)–(4).
#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod decision;
pub mod event;
pub mod exec;
pub mod insertion;
pub mod lower_bound;
pub mod objective;
pub mod planner;
pub mod platform;
pub mod route;
pub(crate) mod shortlist;
pub mod types;

/// Commonly used items.
pub mod prelude {
    pub use crate::decision::{decision_phase, DecisionOutcome};
    pub use crate::event::{EventRouting, PlatformEvent, ReassignPolicy, WorkerChange};
    pub use crate::exec::{IndexFeed, WorkPool};
    pub use crate::insertion::{
        basic_insertion, linear_dp_insertion, linear_dp_insertion_with, naive_dp_insertion,
        InsertionScratch,
    };
    pub use crate::lower_bound::insertion_lower_bound;
    pub use crate::objective::{ObjectivePreset, UnifiedCost};
    pub use crate::planner::{GreedyDp, Planner, PlannerConfig, PruneGreedyDp};
    pub use crate::platform::{
        CancelOutcome, CandidateBuf, EligibleCandidates, FleetView, HandoffTicket, Outcome,
        PlatformState, WorkerAgent,
    };
    pub use crate::route::{InsertionPlan, PlanShape, Route};
    pub use crate::types::{
        ClassConstraint, ClassId, ClassTable, Request, RequestId, Stop, StopKind, Time,
        VehicleClass, Worker, WorkerId,
    };
}
