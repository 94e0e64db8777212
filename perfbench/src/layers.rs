//! The per-layer ledger of the traced build: what each layer did during
//! one replay, read from the decorators' spans and counts and from the
//! `urpsm-obs` registry, named after the crates.

use std::time::Instant;

use road_network::hub_labels::HubLabels;
use urpsm_obs::MetricsSnapshot;

use crate::stats::{median, percentile, ratio, skew, Json};
use crate::trace::{self, Kind};
use crate::workload::{Replay, Setup};

/// Whether a value is deterministic work (must repeat exactly across
/// replays and runs) or a measurement (reported as a median).
#[derive(Clone, Copy, PartialEq, Eq)]
enum Nature {
    Count,
    Time,
}

use Nature::{Count, Time};

/// One replay's layer readings, in emission order.
pub struct ReplayLayers {
    values: Vec<(&'static str, &'static str, Nature, f64)>,
}

impl ReplayLayers {
    /// Reads the ledger of the replay that just ended; `before` is the
    /// registry snapshot taken before it started.
    pub fn read(before: &MetricsSnapshot, r: &Replay) -> Self {
        let after = urpsm_obs::registry().snapshot();
        let d = |f: fn(&MetricsSnapshot) -> u64| (f(&after) - f(before)) as f64;
        let spans = trace::spans();
        let k = trace::fold(&spans);
        let c = trace::counts();
        let loads = trace::shard_loads();
        let mut plan_ns = trace::plan_request_ns();
        plan_ns.sort_unstable();
        let s = |ns: u64| ns as f64 / 1e9;
        let (feed, submit, tick, plan) = (
            k[Kind::Feed as usize],
            k[Kind::Submit as usize],
            k[Kind::Tick as usize],
            k[Kind::Plan as usize],
        );
        let self_sum = s(feed.self_ns + submit.self_ns + tick.self_ns + plan.self_ns);
        let assigned = d(|m| m.plan_assigned);
        let probes = d(|m| m.plan_probes);
        let shortlist_n = (after.plan_shortlist_len.count - before.plan_shortlist_len.count) as f64;
        let shortlist_sum = after
            .plan_shortlist_len
            .sum
            .wrapping_sub(before.plan_shortlist_len.sum);
        let td_hits = d(|m| m.td_dis_hits);
        let td_misses = d(|m| m.td_dis_misses);
        let lru_hits = d(|m| m.dis_cache_hits);
        let lru_misses = d(|m| m.dis_cache_misses);
        let borrow_probes = d(|m| m.borrow_probes);
        let srv = r.server;
        let values = vec![
            ("core.plan_calls", "count", Count, plan.count as f64),
            ("core.plan_s", "s", Time, s(plan.total_ns)),
            (
                "core.plan_p99_us",
                "us",
                Time,
                percentile(&plan_ns, 0.99) as f64 / 1e3,
            ),
            ("core.dis", "count", Count, c.plan_dis as f64),
            ("core.euc", "count", Count, c.plan_euc as f64),
            ("core.probes", "count", Count, probes),
            (
                "core.shortlist_mean",
                "workers",
                Count,
                ratio(shortlist_sum as f64, shortlist_n),
            ),
            (
                "core.bound_improvements",
                "count",
                Count,
                d(|m| m.plan_bound_improvements),
            ),
            (
                "core.probes_per_assigned",
                "ratio",
                Count,
                ratio(probes, assigned),
            ),
            ("core.allocs", "count", Time, plan.self_allocs as f64),
            (
                "road-network.td_queries",
                "count",
                Count,
                d(|m| m.td_queries),
            ),
            (
                "road-network.td_settled",
                "count",
                Count,
                d(|m| m.td_settled),
            ),
            (
                "road-network.td_hit_rate",
                "ratio",
                Count,
                ratio(td_hits, td_hits + td_misses),
            ),
            (
                "road-network.lru_hit_rate",
                "ratio",
                Count,
                ratio(lru_hits, lru_hits + lru_misses),
            ),
            (
                "road-network.dis_calls",
                "count",
                Count,
                (c.plan_dis + c.motion_dis) as f64,
            ),
            (
                "road-network.path_calls",
                "count",
                Count,
                (c.plan_path + c.motion_path) as f64,
            ),
            ("road-network.dis_s", "s", Time, s(c.dis_ns)),
            ("road-network.path_s", "s", Time, s(c.path_ns)),
            ("simulator.submit_s", "s", Time, s(submit.total_ns)),
            ("simulator.self_s", "s", Time, s(submit.self_ns)),
            ("simulator.motion_dis", "count", Count, c.motion_dis as f64),
            (
                "simulator.motion_paths",
                "count",
                Count,
                c.motion_path as f64,
            ),
            ("simulator.allocs", "count", Time, submit.self_allocs as f64),
            (
                "dispatch.shard_calls_skew",
                "ratio",
                Count,
                skew(&loads.iter().map(|l| l.calls as f64).collect::<Vec<_>>()),
            ),
            (
                "dispatch.shard_plan_skew",
                "ratio",
                Time,
                skew(&loads.iter().map(|l| l.ns as f64).collect::<Vec<_>>()),
            ),
            ("dispatch.borrow_probes", "count", Count, borrow_probes),
            (
                "dispatch.borrow_win_rate",
                "ratio",
                Count,
                ratio(d(|m| m.borrow_wins), borrow_probes),
            ),
            ("dispatch.handoffs", "count", Count, d(|m| m.shard_handoffs)),
            ("server.ticks", "count", Count, srv.ticks as f64),
            ("server.tick_s", "s", Time, s(tick.total_ns)),
            ("server.tick_self_s", "s", Time, s(tick.self_ns)),
            (
                "server.batch_mean",
                "events",
                Count,
                ratio(r.offered as f64, tick.count as f64),
            ),
            ("server.wal_bytes", "bytes", Count, srv.wal_bytes as f64),
            ("server.wal_records", "count", Count, srv.wal_records as f64),
            ("server.snapshots", "count", Count, srv.snapshots as f64),
            (
                "server.wal_flush_p99_us",
                "us",
                Time,
                after.wal_flush_ns.p99 as f64 / 1e3,
            ),
            ("server.sheds", "count", Count, srv.sheds as f64),
            (
                "server.peak_backlog",
                "count",
                Count,
                srv.peak_backlog as f64,
            ),
            ("server.allocs", "count", Time, tick.self_allocs as f64),
            ("workloads.feed_self_s", "s", Time, s(feed.self_ns)),
            ("trace.wall_s", "s", Time, r.wall_s),
            ("trace.self_sum_s", "s", Time, self_sum),
            ("trace.coverage", "ratio", Time, ratio(self_sum, r.wall_s)),
            (
                "trace.throughput_eps",
                "1/s",
                Time,
                ratio(r.offered as f64, r.wall_s),
            ),
        ];
        ReplayLayers { values }
    }
}

/// Ledger checks: deterministic work repeats exactly across replays,
/// and the layers' self times account for the replay wall time.
pub fn check(replays: &[ReplayLayers]) -> Vec<String> {
    let mut errors = Vec::new();
    let first = &replays[0];
    for r in &replays[1..] {
        for (a, b) in first.values.iter().zip(&r.values) {
            if a.2 == Count && a.3 != b.3 {
                errors.push(format!(
                    "{} differs across replays: {} vs {}",
                    a.0, a.3, b.3
                ));
            }
        }
    }
    let coverage = median(&column(replays, "trace.coverage"));
    if !(0.95..=1.05).contains(&coverage) {
        errors.push(format!(
            "layer self times cover {:.1} % of the replay wall time (want 95–105 %)",
            coverage * 100.0
        ));
    }
    errors
}

fn column(replays: &[ReplayLayers], name: &str) -> Vec<f64> {
    replays
        .iter()
        .filter_map(|r| r.values.iter().find(|v| v.0 == name).map(|v| v.3))
        .collect()
}

/// Emits every layer metric: counts from the first replay (they repeat),
/// measurements as the median over replays. Adds the set-up layer
/// readings of the road network: label size and a timed label build.
pub fn emit(out: &mut Json, setup: &Setup, replays: &[ReplayLayers]) {
    for (i, &(name, unit, nature, first)) in replays[0].values.iter().enumerate() {
        let value = match nature {
            Count => first,
            Time => median(&replays.iter().map(|r| r.values[i].3).collect::<Vec<_>>()),
        };
        out.metric(name, value, unit);
    }
    out.metric(
        "road-network.label_mb",
        setup.labels().mem_bytes() as f64 / 1e6,
        "MB",
    );
    let t0 = Instant::now();
    let labels = HubLabels::build(setup.network());
    out.metric(
        "road-network.label_build_s",
        t0.elapsed().as_secs_f64(),
        "s",
    );
    drop(labels);
    out.metric("workloads.events", setup.events.len() as f64, "count");
    out.metric("workloads.cancels", setup.cancels as f64, "count");
    out.metric("workloads.churn", setup.churn as f64, "count");
}
