//! Geo-sharded dispatch plane (the horizontal-scaling layer).
//!
//! The paper's platform (§3, §6) is one dispatcher over one grid
//! index. This crate is the partitioned deployment of the same
//! machinery: a [`service::ShardedService`] cuts the city into `K`
//! rectangular territories ([`shard_map::ShardMap`]), gives each its
//! own complete platform — `PlatformState`, boxed `Planner`, worker
//! motion, event log — and routes every
//! [`urpsm_core::event::PlatformEvent`] to its home shard
//! ([`urpsm_core::event::PlatformEvent::routing`]). Dispatch is local;
//! coordination happens only at the seams, where the
//! [`service::BoundaryPolicy`] decides whether idle border workers may
//! be handed off between shards (with exact driven/planned accounting
//! through the platform's export/add surface).
//!
//! Two invariants carry the whole design (DESIGN.md §6):
//!
//! 1. **Home-shard ownership** — every request and every worker is
//!    owned by exactly one shard at any moment; requests never move,
//!    workers move only through an explicit handoff.
//! 2. **Deterministic merge** — shard replies are merged by
//!    `(time, event_seq, shard_id)`, and a single-shard step passes
//!    through verbatim, so `K = 1` is byte-identical to a plain
//!    [`urpsm_simulator::service::MobilityService`]
//!    (`tests/shard_equivalence.rs` pins this, cancels and churn
//!    included).
#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod admission;
pub mod service;
pub mod shard_map;

/// Commonly used items.
pub mod prelude {
    pub use crate::admission::{Admission, AdmissionConfig, AdmissionController};
    pub use crate::service::{
        BoundaryPolicy, ShardConfig, ShardReport, ShardedOutcome, ShardedService,
    };
    pub use crate::shard_map::ShardMap;
}
