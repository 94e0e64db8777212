//! Experiment harness shared by the `experiments` binary and the
//! criterion benches: scenario caching, cell execution, and the
//! fixed-width tables that mirror the paper's figure panels.
//!
//! `unsafe` is forbidden except under the `alloc-count` feature, whose
//! counting [`std::alloc::GlobalAlloc`] shim necessarily is an unsafe
//! trait impl; the feature keeps it out of every default build and
//! `alloc_track` confines it to a single pass-through impl.
#![cfg_attr(not(feature = "alloc-count"), forbid(unsafe_code))]
#![deny(unsafe_code)]
#![warn(missing_docs)]

#[cfg(feature = "alloc-count")]
pub mod alloc_track;
pub mod fixtures;
pub mod harness;
pub mod table;

/// Opens the observability gate when this crate is built with its
/// `obs` feature, so the instrumented layers record and the bench
/// `--json` artifacts carry a non-zero `metrics_snapshot`. Each bench
/// calls it once, before any measured work; a no-op without the
/// feature.
pub fn open_obs_gate() {
    #[cfg(feature = "obs")]
    urpsm_obs::set_enabled(true);
}

/// JSON rendering of the global metrics registry's current snapshot,
/// for embedding in bench `--json` artifacts (DESIGN.md §11). Always
/// available: when the `obs` feature is off every counter reads zero,
/// so artifact consumers see a stable shape regardless of how the
/// bench was built.
pub fn obs_snapshot_json() -> String {
    urpsm_obs::registry().snapshot().to_json()
}
