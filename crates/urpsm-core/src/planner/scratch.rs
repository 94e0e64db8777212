//! The planning arena (`PlanScratch`).
//!
//! One planned insertion needs three kinds of temporary storage: the
//! candidate shortlist of the decision phase, the linear-DP distance
//! columns, and a probe route for the congestion re-feasibility check.
//! Allocating any of them per request puts a `malloc` on the hot path;
//! `PlanScratch` bundles all three into one arena owned by the planner
//! engine, and every buffer is `clear()`-reused, so a steady-state
//! planned insertion touches the allocator zero times (gated by
//! `benches/alloc.rs` in `urpsm-bench`).

use crate::insertion::InsertionScratch;
use crate::route::Route;
use crate::shortlist::Shortlist;

/// The reusable buffers the planner engine needs for one request.
/// All fields survive across requests with retained capacity; none of
/// them carry information between requests (the leak-freedom is pinned
/// by `tests/scratch_reuse.rs`: a long-lived planner and a
/// fresh-per-request planner produce identical outcome streams).
#[derive(Debug, Default)]
pub(crate) struct PlanScratch {
    /// SoA candidate shortlist: `(LBΔ*, worker)` columns plus the
    /// ascending sort permutation.
    pub shortlist: Shortlist,
    /// Distance columns of the linear-DP insertion (Algo. 3).
    pub insertion: InsertionScratch,
    /// Probe route for the congestion re-feasibility gate:
    /// `clone_from`-ed over the candidate's route, so its inline stop
    /// arrays (and any heap capacity from a past spill) are reused.
    pub probe: Route,
}
