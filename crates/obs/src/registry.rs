//! The static metrics registry: one global, lazily constructed struct of
//! named metrics covering every instrumented layer (planner, oracles,
//! shard plane, ingest/WAL), plus the flight-recorder ring.
//!
//! Construction happens once, on first touch, and is the only time the
//! observability plane allocates (the ring's slot array). Every field is
//! a plain atomic primitive from [`crate::metrics`]; instrumented crates
//! reach them through [`crate::with`], which short-circuits to nothing
//! when the runtime gate is off.

use crate::metrics::{Counter, Gauge, HistSummary, Histogram, ShardedHistogram};
use crate::ring::{FlightRecorder, DEFAULT_RING_CAPACITY};
use std::sync::OnceLock;

/// Upper bound on per-shard labelled series (gauges/counters indexed by
/// shard id). Shards beyond this fold into the last slot.
pub const MAX_SHARDS: usize = 64;

/// Clamp a shard id into the labelled range.
#[inline]
pub fn shard_slot(shard: usize) -> usize {
    shard.min(MAX_SHARDS - 1)
}

/// Upper bound on per-vehicle-class labelled series. Classes beyond
/// this fold into the last slot (fleets carry a handful of classes).
pub const MAX_CLASSES: usize = 16;

/// Clamp a vehicle-class id into the labelled range.
#[inline]
pub fn class_slot(class: usize) -> usize {
    class.min(MAX_CLASSES - 1)
}

/// Every metric the system records, by name. See DESIGN.md §11 for the
/// layout rationale.
#[derive(Debug)]
pub struct Registry {
    // ── planner ────────────────────────────────────────────────────────
    /// Requests handled by the DP planners (GreedyDP / pruneGreedyDP).
    pub plan_requests: Counter,
    /// Requests committed to a worker.
    pub plan_assigned: Counter,
    /// Requests rejected (no feasible/economic insertion).
    pub plan_rejected: Counter,
    /// Linear-DP insertion probes executed.
    pub plan_probes: Counter,
    /// Times pruneGreedyDP's Lemma 8 bound tightened: a probe found a
    /// feasible `Δ` strictly below the best so far (GreedyDP never
    /// prunes, so it records none).
    pub plan_bound_improvements: Counter,
    /// Per-request planning latency (nanoseconds).
    pub plan_latency_ns: ShardedHistogram,
    /// Candidate-shortlist length per request.
    pub plan_shortlist_len: ShardedHistogram,

    // ── static distance oracle cache ───────────────────────────────────
    /// Static distance-cache hits.
    pub dis_cache_hits: Counter,
    /// Static distance-cache misses.
    pub dis_cache_misses: Counter,
    /// Static distance-cache evictions.
    pub dis_cache_evictions: Counter,
    /// Static path-cache hits.
    pub path_cache_hits: Counter,
    /// Static path-cache misses.
    pub path_cache_misses: Counter,

    // ── time-dependent oracle ──────────────────────────────────────────
    /// TD distance-cache hits (exact in-bucket reuse).
    pub td_dis_hits: Counter,
    /// TD distance-cache misses (including failed in-bucket reuse).
    pub td_dis_misses: Counter,
    /// TD path-cache hits.
    pub td_path_hits: Counter,
    /// TD path-cache misses.
    pub td_path_misses: Counter,
    /// TD cache evictions (distance + path).
    pub td_evictions: Counter,
    /// Vertices settled by TD-Dijkstra searches.
    pub td_settled: Counter,
    /// TD-Dijkstra searches run.
    pub td_queries: Counter,

    // ── shard plane ────────────────────────────────────────────────────
    /// Shards configured in the live `ShardedService` (0 = unsharded).
    pub shards_live: Gauge,
    /// Events submitted to each shard.
    pub shard_events: [Counter; MAX_SHARDS],
    /// Cross-shard worker handoffs committed.
    pub shard_handoffs: Counter,
    /// Borrow probes attempted on rejection.
    pub borrow_probes: Counter,
    /// Borrow probes that beat the home-shard outcome.
    pub borrow_wins: Counter,

    // ── ingest / WAL ───────────────────────────────────────────────────
    /// Ingest ticks completed.
    pub ingest_ticks: Counter,
    /// Events admitted by the admission controller.
    pub ingest_admitted: Counter,
    /// Events deferred past the tick budget.
    pub ingest_deferred: Counter,
    /// Events shed at the queue limit.
    pub ingest_shed: Counter,
    /// Total backlog at the end of the latest tick.
    pub ingest_backlog: Gauge,
    /// Run-level backlog high-water mark.
    pub ingest_peak_backlog: Gauge,
    /// End-of-tick backlog per shard.
    pub shard_backlog: [Gauge; MAX_SHARDS],
    /// Sheds per shard.
    pub shard_sheds: [Counter; MAX_SHARDS],
    /// WAL records appended.
    pub wal_appends: Counter,
    /// WAL bytes written (framing + payload).
    pub wal_bytes: Counter,
    /// WAL flushes.
    pub wal_flushes: Counter,
    /// WAL flush latency (nanoseconds).
    pub wal_flush_ns: Histogram,
    /// Recovery runs performed.
    pub recovery_runs: Counter,
    /// Events replayed from the WAL during recovery.
    pub recovery_replayed: Counter,
    /// Recoveries that truncated a torn tail.
    pub recovery_torn_tail: Counter,

    // ── service / baselines / workloads ────────────────────────────────
    /// Events submitted to `MobilityService`.
    pub service_events: Counter,
    /// Replies emitted by `MobilityService`.
    pub service_replies: Counter,
    /// Kinetic-tree reorderings that beat plain insertion.
    pub kinetic_reorders: Counter,
    /// Batch-planner epoch flushes.
    pub batch_epochs: Counter,
    /// Platform events generated by workload scenarios.
    pub workload_events: Counter,

    // ── vehicle classes ────────────────────────────────────────────────
    /// Vehicle classes in the live fleet (1 = homogeneous default).
    pub classes_live: Gauge,
    /// Requests served, per vehicle class.
    pub class_served: [Counter; MAX_CLASSES],
    /// Distance driven per vehicle class (free-flow cost units).
    pub class_driven: [Counter; MAX_CLASSES],

    /// The flight-recorder trace ring.
    pub ring: FlightRecorder,
}

impl Registry {
    fn new() -> Self {
        Registry {
            plan_requests: Counter::new(),
            plan_assigned: Counter::new(),
            plan_rejected: Counter::new(),
            plan_probes: Counter::new(),
            plan_bound_improvements: Counter::new(),
            plan_latency_ns: ShardedHistogram::new(),
            plan_shortlist_len: ShardedHistogram::new(),
            dis_cache_hits: Counter::new(),
            dis_cache_misses: Counter::new(),
            dis_cache_evictions: Counter::new(),
            path_cache_hits: Counter::new(),
            path_cache_misses: Counter::new(),
            td_dis_hits: Counter::new(),
            td_dis_misses: Counter::new(),
            td_path_hits: Counter::new(),
            td_path_misses: Counter::new(),
            td_evictions: Counter::new(),
            td_settled: Counter::new(),
            td_queries: Counter::new(),
            shards_live: Gauge::new(),
            shard_events: std::array::from_fn(|_| Counter::new()),
            shard_handoffs: Counter::new(),
            borrow_probes: Counter::new(),
            borrow_wins: Counter::new(),
            ingest_ticks: Counter::new(),
            ingest_admitted: Counter::new(),
            ingest_deferred: Counter::new(),
            ingest_shed: Counter::new(),
            ingest_backlog: Gauge::new(),
            ingest_peak_backlog: Gauge::new(),
            shard_backlog: std::array::from_fn(|_| Gauge::new()),
            shard_sheds: std::array::from_fn(|_| Counter::new()),
            wal_appends: Counter::new(),
            wal_bytes: Counter::new(),
            wal_flushes: Counter::new(),
            wal_flush_ns: Histogram::new(),
            recovery_runs: Counter::new(),
            recovery_replayed: Counter::new(),
            recovery_torn_tail: Counter::new(),
            service_events: Counter::new(),
            service_replies: Counter::new(),
            kinetic_reorders: Counter::new(),
            batch_epochs: Counter::new(),
            workload_events: Counter::new(),
            classes_live: Gauge::new(),
            class_served: std::array::from_fn(|_| Counter::new()),
            class_driven: std::array::from_fn(|_| Counter::new()),
            ring: FlightRecorder::with_capacity(DEFAULT_RING_CAPACITY),
        }
    }

    /// Freeze the registry into a plain-data snapshot.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let rate = |hits: u64, misses: u64| -> f64 {
            let total = hits + misses;
            if total == 0 {
                0.0
            } else {
                hits as f64 / total as f64
            }
        };
        let live = (self.shards_live.get() as usize).min(MAX_SHARDS);
        MetricsSnapshot {
            enabled: crate::enabled(),
            plan_requests: self.plan_requests.get(),
            plan_assigned: self.plan_assigned.get(),
            plan_rejected: self.plan_rejected.get(),
            plan_probes: self.plan_probes.get(),
            plan_bound_improvements: self.plan_bound_improvements.get(),
            plan_latency_ns: self.plan_latency_ns.summary(),
            plan_shortlist_len: self.plan_shortlist_len.summary(),
            dis_cache_hits: self.dis_cache_hits.get(),
            dis_cache_misses: self.dis_cache_misses.get(),
            dis_cache_evictions: self.dis_cache_evictions.get(),
            dis_cache_hit_rate: rate(self.dis_cache_hits.get(), self.dis_cache_misses.get()),
            path_cache_hits: self.path_cache_hits.get(),
            path_cache_misses: self.path_cache_misses.get(),
            td_dis_hits: self.td_dis_hits.get(),
            td_dis_misses: self.td_dis_misses.get(),
            td_dis_hit_rate: rate(self.td_dis_hits.get(), self.td_dis_misses.get()),
            td_path_hits: self.td_path_hits.get(),
            td_path_misses: self.td_path_misses.get(),
            td_evictions: self.td_evictions.get(),
            td_settled: self.td_settled.get(),
            td_queries: self.td_queries.get(),
            shards_live: live as u64,
            shard_events: (0..live).map(|s| self.shard_events[s].get()).collect(),
            shard_handoffs: self.shard_handoffs.get(),
            borrow_probes: self.borrow_probes.get(),
            borrow_wins: self.borrow_wins.get(),
            ingest_ticks: self.ingest_ticks.get(),
            ingest_admitted: self.ingest_admitted.get(),
            ingest_deferred: self.ingest_deferred.get(),
            ingest_shed: self.ingest_shed.get(),
            ingest_backlog: self.ingest_backlog.get(),
            ingest_peak_backlog: self.ingest_peak_backlog.get(),
            wal_appends: self.wal_appends.get(),
            wal_bytes: self.wal_bytes.get(),
            wal_flushes: self.wal_flushes.get(),
            wal_flush_ns: self.wal_flush_ns.summary(),
            recovery_runs: self.recovery_runs.get(),
            recovery_replayed: self.recovery_replayed.get(),
            recovery_torn_tail: self.recovery_torn_tail.get(),
            service_events: self.service_events.get(),
            service_replies: self.service_replies.get(),
            kinetic_reorders: self.kinetic_reorders.get(),
            batch_epochs: self.batch_epochs.get(),
            workload_events: self.workload_events.get(),
            classes_live: self.classes_live.get(),
            class_served: {
                let live = (self.classes_live.get() as usize).min(MAX_CLASSES);
                (0..live).map(|c| self.class_served[c].get()).collect()
            },
            class_driven: {
                let live = (self.classes_live.get() as usize).min(MAX_CLASSES);
                (0..live).map(|c| self.class_driven[c].get()).collect()
            },
            trace_recorded: self.ring.recorded(),
        }
    }
}

static REGISTRY: OnceLock<Registry> = OnceLock::new();

/// The process-wide registry (constructed on first touch).
pub fn registry() -> &'static Registry {
    REGISTRY.get_or_init(Registry::new)
}

/// A plain-data freeze of the registry, reused by benches, experiments,
/// and the `urpsm-serve` shutdown summary. Serialize with
/// [`MetricsSnapshot::to_json`].
#[derive(Debug, Clone, Default, PartialEq)]
#[allow(missing_docs)] // field names mirror the documented Registry fields
pub struct MetricsSnapshot {
    pub enabled: bool,
    pub plan_requests: u64,
    pub plan_assigned: u64,
    pub plan_rejected: u64,
    pub plan_probes: u64,
    pub plan_bound_improvements: u64,
    pub plan_latency_ns: HistSummary,
    pub plan_shortlist_len: HistSummary,
    pub dis_cache_hits: u64,
    pub dis_cache_misses: u64,
    pub dis_cache_evictions: u64,
    pub dis_cache_hit_rate: f64,
    pub path_cache_hits: u64,
    pub path_cache_misses: u64,
    pub td_dis_hits: u64,
    pub td_dis_misses: u64,
    pub td_dis_hit_rate: f64,
    pub td_path_hits: u64,
    pub td_path_misses: u64,
    pub td_evictions: u64,
    pub td_settled: u64,
    pub td_queries: u64,
    pub shards_live: u64,
    pub shard_events: Vec<u64>,
    pub shard_handoffs: u64,
    pub borrow_probes: u64,
    pub borrow_wins: u64,
    pub ingest_ticks: u64,
    pub ingest_admitted: u64,
    pub ingest_deferred: u64,
    pub ingest_shed: u64,
    pub ingest_backlog: u64,
    pub ingest_peak_backlog: u64,
    pub wal_appends: u64,
    pub wal_bytes: u64,
    pub wal_flushes: u64,
    pub wal_flush_ns: HistSummary,
    pub recovery_runs: u64,
    pub recovery_replayed: u64,
    pub recovery_torn_tail: u64,
    pub service_events: u64,
    pub service_replies: u64,
    pub kinetic_reorders: u64,
    pub batch_epochs: u64,
    pub workload_events: u64,
    pub classes_live: u64,
    pub class_served: Vec<u64>,
    pub class_driven: Vec<u64>,
    pub trace_recorded: u64,
}

fn hist_json(out: &mut String, key: &str, h: &HistSummary) {
    out.push_str(&format!(
        "\"{key}\":{{\"count\":{},\"sum\":{},\"p50\":{},\"p90\":{},\"p99\":{},\"max\":{}}}",
        h.count, h.sum, h.p50, h.p90, h.p99, h.max
    ));
}

impl MetricsSnapshot {
    /// Render as a self-contained JSON object (no external serializer).
    pub fn to_json(&self) -> String {
        let mut o = String::with_capacity(2048);
        o.push('{');
        o.push_str(&format!("\"enabled\":{},", self.enabled));
        for (k, v) in [
            ("plan_requests", self.plan_requests),
            ("plan_assigned", self.plan_assigned),
            ("plan_rejected", self.plan_rejected),
            ("plan_probes", self.plan_probes),
            ("plan_bound_improvements", self.plan_bound_improvements),
        ] {
            o.push_str(&format!("\"{k}\":{v},"));
        }
        hist_json(&mut o, "plan_latency_ns", &self.plan_latency_ns);
        o.push(',');
        hist_json(&mut o, "plan_shortlist_len", &self.plan_shortlist_len);
        o.push(',');
        o.push_str(&format!(
            "\"dis_cache_hit_rate\":{:.6},\"td_dis_hit_rate\":{:.6},",
            self.dis_cache_hit_rate, self.td_dis_hit_rate
        ));
        for (k, v) in [
            ("dis_cache_hits", self.dis_cache_hits),
            ("dis_cache_misses", self.dis_cache_misses),
            ("dis_cache_evictions", self.dis_cache_evictions),
            ("path_cache_hits", self.path_cache_hits),
            ("path_cache_misses", self.path_cache_misses),
            ("td_dis_hits", self.td_dis_hits),
            ("td_dis_misses", self.td_dis_misses),
            ("td_path_hits", self.td_path_hits),
            ("td_path_misses", self.td_path_misses),
            ("td_evictions", self.td_evictions),
            ("td_settled", self.td_settled),
            ("td_queries", self.td_queries),
            ("shards_live", self.shards_live),
            ("shard_handoffs", self.shard_handoffs),
            ("borrow_probes", self.borrow_probes),
            ("borrow_wins", self.borrow_wins),
            ("ingest_ticks", self.ingest_ticks),
            ("ingest_admitted", self.ingest_admitted),
            ("ingest_deferred", self.ingest_deferred),
            ("ingest_shed", self.ingest_shed),
            ("ingest_backlog", self.ingest_backlog),
            ("ingest_peak_backlog", self.ingest_peak_backlog),
            ("wal_appends", self.wal_appends),
            ("wal_bytes", self.wal_bytes),
            ("wal_flushes", self.wal_flushes),
        ] {
            o.push_str(&format!("\"{k}\":{v},"));
        }
        hist_json(&mut o, "wal_flush_ns", &self.wal_flush_ns);
        o.push(',');
        for (key, values) in [
            ("shard_events", &self.shard_events),
            ("class_served", &self.class_served),
            ("class_driven", &self.class_driven),
        ] {
            o.push_str(&format!("\"{key}\":["));
            for (i, v) in values.iter().enumerate() {
                if i > 0 {
                    o.push(',');
                }
                o.push_str(&v.to_string());
            }
            o.push_str("],");
        }
        o.push_str(&format!("\"classes_live\":{},", self.classes_live));
        for (k, v) in [
            ("recovery_runs", self.recovery_runs),
            ("recovery_replayed", self.recovery_replayed),
            ("recovery_torn_tail", self.recovery_torn_tail),
            ("service_events", self.service_events),
            ("service_replies", self.service_replies),
            ("kinetic_reorders", self.kinetic_reorders),
            ("batch_epochs", self.batch_epochs),
            ("workload_events", self.workload_events),
            ("trace_recorded", self.trace_recorded),
        ] {
            o.push_str(&format!("\"{k}\":{v},"));
        }
        o.pop(); // trailing comma
        o.push('}');
        o
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_json_is_balanced_and_keyed() {
        let snap = registry().snapshot();
        let json = snap.to_json();
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert_eq!(
            json.matches('{').count(),
            json.matches('}').count(),
            "balanced braces"
        );
        for key in [
            "plan_latency_ns",
            "td_dis_hit_rate",
            "wal_flush_ns",
            "shard_events",
            "class_served",
            "class_driven",
            "classes_live",
            "trace_recorded",
        ] {
            assert!(json.contains(&format!("\"{key}\"")), "missing {key}");
        }
    }
}
