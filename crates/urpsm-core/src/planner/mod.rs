//! The planner abstraction and the paper's two solutions.
//!
//! A [`Planner`] receives dynamically released requests one at a time
//! (the online setting of §2) and must immediately and irrevocably
//! either insert each into some worker's route or reject it. The two
//! planners here are the paper's:
//!
//! * [`GreedyDp`] — decision phase (Algo. 4) + exhaustive planning
//!   phase: evaluate the exact linear-DP insertion for *every*
//!   candidate worker, pick the minimum.
//! * [`PruneGreedyDp`] — Algo. 5: identical, but scans workers in
//!   ascending `LBΔ*` order and stops as soon as the best exact `Δ*`
//!   found so far is strictly below the next worker's lower bound
//!   (Lemma 8) — same result, a fraction of the distance queries.
//!
//! The three baselines of §6 (`tshare`, `kinetic`, `batch`) implement
//! the same trait in the `urpsm-baselines` crate.

mod greedy;
mod scratch;

pub use greedy::{GreedyDp, PruneGreedyDp};

use smallvec::SmallVec;

use crate::event::WorkerChange;
use crate::platform::{Outcome, PlatformState};
use crate::types::{Request, RequestId, Time};

/// Outcome list returned by the planner callbacks. Immediate planners
/// answer with exactly one `(request, outcome)` pair and batch
/// planners usually with zero (buffering) or a small epoch burst, so
/// the list is inline up to two entries — the common cases never touch
/// the heap, which keeps the planned-insertion hot path
/// allocation-free (see `benches/alloc.rs` in `urpsm-bench`). Larger
/// bursts (epoch flushes) spill to the heap transparently.
pub type PlannerReplies = SmallVec<(RequestId, Outcome), 2>;

/// A single-reply list: the immediate planners' unit answer.
pub fn reply_one(r: RequestId, outcome: Outcome) -> PlannerReplies {
    SmallVec::from_slice(&[(r, outcome)])
}

/// Shared planner configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlannerConfig {
    /// The unified-objective weight `α` (Eq. 1). The experiments of
    /// §6.1 fix `α = 1`.
    pub alpha: u64,
    /// Extension (not in the paper, see `DESIGN.md` §2 at the repo
    /// root): when `true`, a request is also rejected at *planning*
    /// time if the exact cost `α · Δ*` exceeds its penalty — the paper
    /// only applies the economic test to the lower bound in the
    /// decision phase.
    pub strict_economics: bool,
    /// Unread: the planners always plan sequentially, as Algo. 5
    /// does. The field is kept only because the benchmark harness
    /// (`perfbench/`) names it in struct literals; the next change to
    /// the benchmark removes it.
    pub threads: usize,
}

impl Default for PlannerConfig {
    /// `α = 1`, lax economics (`threads: 1` is unread).
    fn default() -> Self {
        PlannerConfig {
            alpha: 1,
            strict_economics: false,
            threads: 1,
        }
    }
}

/// An online route planner for shared mobility.
///
/// `Send` is a supertrait: the geo-sharded dispatch plane
/// (`urpsm_dispatch`) moves each shard's boxed planner across scoped
/// threads when it fans a broadcast event out over the shards. Every
/// planner is plain data plus `Arc` handles, so the bound costs
/// nothing in practice — it only rules out `Rc`/`RefCell`-style
/// interior state that could not ride a shard thread anyway.
pub trait Planner: Send {
    /// Human-readable algorithm name (used in experiment tables).
    fn name(&self) -> &'static str;

    /// Handles a newly released request. May return outcomes for this
    /// request and/or buffered earlier ones (batch planners defer).
    fn on_request(&mut self, state: &mut PlatformState, r: &Request) -> PlannerReplies;

    /// Notifies the planner that simulation time advanced to `now`
    /// (batch planners flush epochs here). Default: no-op.
    fn on_time(&mut self, _state: &mut PlatformState, _now: Time) -> PlannerReplies {
        PlannerReplies::new()
    }

    /// Called once after the final request; planners with buffers must
    /// drain them. Default: no-op.
    fn flush(&mut self, _state: &mut PlatformState) -> PlannerReplies {
        PlannerReplies::new()
    }

    /// The next time this planner wants an [`Planner::on_time`] call
    /// even if no request arrives (batch planners return their epoch
    /// boundary). Default: never.
    fn next_wakeup(&self) -> Option<Time> {
        None
    }

    /// A rider/shipper cancelled request `r` (see `DESIGN.md` §2).
    /// Planners that buffer undecided requests (batch epochs) must drop
    /// `r` from their buffer and return `true` to signal they absorbed
    /// the cancellation; the service then skips the platform-level
    /// route surgery. Planners that decide immediately keep the default
    /// (`false`) — the platform handles the cancellation through
    /// [`PlatformState::cancel_request`].
    fn on_cancel(&mut self, _state: &mut PlatformState, _r: RequestId) -> bool {
        false
    }

    /// The fleet changed: a worker joined, or one left (see
    /// `DESIGN.md` §2). Called *after* the platform applied the change,
    /// so `state` already reflects the new fleet. Planners with
    /// per-worker caches or pending per-worker work react here.
    /// Default: no-op — correct for the paper's planners, which look
    /// workers up through the grid index on every decision.
    fn on_worker_change(&mut self, _state: &mut PlatformState, _change: WorkerChange) {}

    /// Unread and never called: no planner has a fan-out. The hook is
    /// kept only because the benchmark harness (`perfbench/`) overrides
    /// it in its tracing decorator; the next change to the benchmark
    /// removes it.
    fn set_threads(&mut self, _threads: usize) {}
}

impl<P: Planner + ?Sized> Planner for Box<P> {
    fn name(&self) -> &'static str {
        (**self).name()
    }
    fn on_request(&mut self, state: &mut PlatformState, r: &Request) -> PlannerReplies {
        (**self).on_request(state, r)
    }
    fn on_time(&mut self, state: &mut PlatformState, now: Time) -> PlannerReplies {
        (**self).on_time(state, now)
    }
    fn flush(&mut self, state: &mut PlatformState) -> PlannerReplies {
        (**self).flush(state)
    }
    fn next_wakeup(&self) -> Option<Time> {
        (**self).next_wakeup()
    }
    fn on_cancel(&mut self, state: &mut PlatformState, r: RequestId) -> bool {
        (**self).on_cancel(state, r)
    }
    fn on_worker_change(&mut self, state: &mut PlatformState, change: WorkerChange) {
        (**self).on_worker_change(state, change)
    }
}

/// Borrowing adapter: the simulator driver and the benches can feed a
/// `&mut P` where a [`Planner`] value is expected instead of giving the
/// planner away (e.g. `MobilityService` boxes `&mut planner` while the
/// caller keeps ownership to read statistics afterwards).
impl<P: Planner + ?Sized> Planner for &mut P {
    fn name(&self) -> &'static str {
        (**self).name()
    }
    fn on_request(&mut self, state: &mut PlatformState, r: &Request) -> PlannerReplies {
        (**self).on_request(state, r)
    }
    fn on_time(&mut self, state: &mut PlatformState, now: Time) -> PlannerReplies {
        (**self).on_time(state, now)
    }
    fn flush(&mut self, state: &mut PlatformState) -> PlannerReplies {
        (**self).flush(state)
    }
    fn next_wakeup(&self) -> Option<Time> {
        (**self).next_wakeup()
    }
    fn on_cancel(&mut self, state: &mut PlatformState, r: RequestId) -> bool {
        (**self).on_cancel(state, r)
    }
    fn on_worker_change(&mut self, state: &mut PlatformState, change: WorkerChange) {
        (**self).on_worker_change(state, change)
    }
}
