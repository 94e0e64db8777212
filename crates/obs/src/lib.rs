//! `urpsm-obs` — the observability plane: a dependency-free metrics
//! registry plus a lock-free flight recorder.
//!
//! # Design (see DESIGN.md §11)
//!
//! - **Static registry.** One global [`Registry`] of named
//!   relaxed-atomic counters, gauges, and log-scale histograms
//!   ([`registry()`]). Constructed lazily on first touch; that
//!   construction (plus the trace ring's slot array) is the *only*
//!   allocation the enabled plane ever performs.
//! - **Flight recorder.** A lock-free overwrite-on-wrap ring of
//!   fixed-size [`TraceEvent`] records ([`FlightRecorder`]), dumpable as
//!   JSON on demand or on panic ([`install_panic_hook`]).
//! - **Two gates.** Instrumented crates compile their call sites behind
//!   their own `obs` cargo feature (off ⇒ zero code in the hot path);
//!   with the feature on, every site routes through [`with`], which is a
//!   single relaxed load + branch when the runtime gate is off.
//!
//! # Runtime gate
//!
//! The gate starts closed. [`set_enabled`] is the only switch: a
//! binary or test that wants recording opens it explicitly (e.g.
//! `urpsm-serve --metrics-file`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod metrics;
pub mod registry;
pub mod ring;
pub mod text;

pub use metrics::{Counter, Gauge, HistSummary, Histogram, ShardedHistogram};
pub use registry::{class_slot, registry, MetricsSnapshot, Registry, MAX_CLASSES, MAX_SHARDS};
pub use ring::{FlightRecorder, TraceEvent, TraceKind};
pub use text::{check_exposition, render_prometheus};

use std::sync::atomic::{AtomicBool, Ordering::Relaxed};
use std::time::Instant;

/// The runtime gate; closed until [`set_enabled`] opens it.
static ENABLED: AtomicBool = AtomicBool::new(false);

/// Is recording enabled? A single relaxed load.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Relaxed)
}

/// Open or close the runtime gate (e.g. `urpsm-serve --metrics-file`
/// opens it).
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Relaxed);
}

/// Run `f` against the global registry iff recording is enabled. This is
/// the one entry point instrumentation sites use; when the gate is off
/// it costs a relaxed load and a predicted branch.
#[inline]
pub fn with<F: FnOnce(&'static Registry)>(f: F) {
    if enabled() {
        f(registry());
    }
}

/// A gate-aware wall-clock timer for latency histograms: holds a start
/// instant only when recording was enabled at start, so the disabled
/// path never touches the clock.
#[derive(Debug, Clone, Copy)]
pub struct Stopwatch(Option<Instant>);

impl Stopwatch {
    /// Start timing (no-op when the runtime gate is off).
    #[inline]
    pub fn start() -> Self {
        Stopwatch(if enabled() {
            Some(Instant::now())
        } else {
            None
        })
    }

    /// Elapsed nanoseconds, if the gate was on at start.
    #[inline]
    pub fn elapsed_ns(&self) -> Option<u64> {
        self.0
            .map(|t| t.elapsed().as_nanos().min(u64::MAX as u128) as u64)
    }
}

/// Install a panic hook that dumps the flight recorder (JSON, most
/// recent events) to stderr before delegating to the previous hook.
/// Idempotent; only dumps when the runtime gate is on at panic time.
pub fn install_panic_hook() {
    use std::sync::Once;
    static ONCE: Once = Once::new();
    ONCE.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if enabled() {
                eprintln!(
                    "urpsm-obs: flight recorder dump ({} events retained):",
                    registry().ring.events().len()
                );
                eprintln!("{}", registry().ring.dump_json());
            }
            prev(info);
        }));
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gate_toggles() {
        set_enabled(false);
        assert!(!enabled());
        // workload_events is not touched by any other test in this crate,
        // so parallel test threads cannot perturb the before/after reads.
        let before = registry().workload_events.get();
        with(|m| m.workload_events.inc());
        assert_eq!(registry().workload_events.get(), before);
        assert!(Stopwatch::start().elapsed_ns().is_none());
        set_enabled(true);
        assert!(enabled());
        with(|m| m.workload_events.inc());
        assert_eq!(registry().workload_events.get(), before + 1);
        assert!(Stopwatch::start().elapsed_ns().is_some());
        set_enabled(false);
    }
}
