//! The geo-sharded dispatch plane against the single `MobilityService`.
//!
//! * **K = 1 is the identity** — a one-shard `ShardedService` replaying
//!   a scenario's full event stream (arrivals, cancellations, fleet
//!   churn) must be *byte-identical* to a plain `MobilityService` fed
//!   the same stream: same event log, same metrics, same committed
//!   distance. Single-shard routing passes every reply through
//!   verbatim, so any divergence is a routing or translation bug.
//! * **K ∈ {2, 4, 8} is audit-clean** — every shard's independent
//!   audit must hold (feasibility, invariability, exact
//!   driven == planned economics) on cancel/churn/multi-region
//!   streams under both boundary policies. Solution *quality* may
//!   legitimately differ from K = 1 (sharding trades optimality for
//!   locality); the delta is recorded in the test output instead of
//!   silently degrading.

use urpsm::baselines::prelude::*;
use urpsm::prelude::*;

fn scenario(seed: u64, cancel_rate: f64, churn: (usize, usize), inter_region: f64) -> Scenario {
    ScenarioBuilder::named("shard-eq")
        .grid_city(10, 10)
        .workers(8)
        .requests(140)
        .horizon(35 * MINUTE_CS)
        .deadline_offset(8 * MINUTE_CS)
        .hotspots(4)
        .inter_region_trips(inter_region)
        .cancel_rate(cancel_rate)
        .cancel_delay(3 * MINUTE_CS)
        .fleet_churn(churn.0, churn.1)
        .seed(seed)
        .build()
}

/// The trace battery: plain, cancellation-heavy, churny, and the
/// kitchen sink with cross-region demand.
fn battery() -> Vec<Scenario> {
    vec![
        scenario(3, 0.0, (0, 0), 0.0),
        scenario(17, 0.2, (0, 0), 0.0),
        scenario(2018, 0.0, (2, 2), 0.0),
        scenario(71, 0.15, (1, 2), 0.4),
    ]
}

/// Zeroes the wall-clock field so metrics compare structurally.
fn normalized(mut m: SimMetrics) -> SimMetrics {
    m.planning_time = std::time::Duration::ZERO;
    m
}

fn run_plain(sc: &Scenario, planner: Box<dyn Planner + '_>) -> SimOutcome {
    let mut service = urpsm::service(sc, planner);
    for event in sc.event_stream() {
        service.submit(event);
    }
    service.drain()
}

fn run_sharded(sc: &Scenario, shards: usize, boundary: BoundaryPolicy) -> ShardedOutcome {
    let mut service = ShardedService::new(
        sc.oracle.clone(),
        sc.workers.clone(),
        |_| Box::new(PruneGreedyDp::new()),
        ShardConfig {
            shards,
            boundary,
            threads: 1,
            sim: SimConfig {
                grid_cell_m: sc.grid_cell_m,
                alpha: sc.alpha,
                drain: true,
                threads: 0,
                classes: sc.classes.clone(),
                ..SimConfig::default()
            },
        },
        sc.event_stream().first().map_or(0, PlatformEvent::time),
    );
    for event in sc.event_stream() {
        service.submit(event);
    }
    service.drain()
}

#[test]
fn one_shard_is_byte_identical_to_the_plain_service() {
    for (i, sc) in battery().iter().enumerate() {
        for boundary in [BoundaryPolicy::Strict, BoundaryPolicy::Borrow { probe: 3 }] {
            let plain = run_plain(sc, Box::new(PruneGreedyDp::new()));
            let sharded = run_sharded(sc, 1, boundary);
            assert_eq!(
                plain.events, sharded.events,
                "trace {i} ({boundary:?}): event log"
            );
            assert_eq!(
                normalized(plain.metrics),
                normalized(sharded.metrics.clone()),
                "trace {i} ({boundary:?}): metrics"
            );
            assert_eq!(
                plain.state.total_assigned_distance(),
                sharded.total_assigned_distance(),
                "trace {i} ({boundary:?}): committed distance"
            );
            assert_eq!(sharded.handoffs, 0, "one shard has no seams");
            assert!(sharded.audit_errors.is_empty(), "trace {i}");
        }
    }
}

#[test]
fn one_shard_matches_the_batch_planner_epochs_too() {
    // The batch planner exercises the wake-up/epoch machinery through
    // the dispatch plane (routing must not skip planner wakeups).
    let sc = scenario(17, 0.2, (0, 0), 0.0);
    let plain = run_plain(&sc, Box::new(BatchPlanner::new()));
    let mut service = ShardedService::new(
        sc.oracle.clone(),
        sc.workers.clone(),
        |_| Box::new(BatchPlanner::new()),
        ShardConfig {
            shards: 1,
            sim: SimConfig {
                grid_cell_m: sc.grid_cell_m,
                alpha: sc.alpha,
                drain: true,
                threads: 0,
                classes: sc.classes.clone(),
                ..SimConfig::default()
            },
            ..ShardConfig::default()
        },
        sc.event_stream().first().map_or(0, PlatformEvent::time),
    );
    for event in sc.event_stream() {
        service.submit(event);
    }
    let sharded = service.drain();
    assert_eq!(plain.events, sharded.events);
    assert_eq!(normalized(plain.metrics), normalized(sharded.metrics));
}

#[test]
fn multi_shard_runs_are_audit_clean_and_quality_is_recorded() {
    for (i, sc) in battery().iter().enumerate() {
        let baseline = run_plain(sc, Box::new(PruneGreedyDp::new()));
        for shards in [2usize, 4, 8] {
            let out = run_sharded(sc, shards, BoundaryPolicy::Borrow { probe: 3 });
            assert_eq!(
                out.audit_errors,
                Vec::<String>::new(),
                "trace {i}, K={shards}"
            );
            // Economics stay exact at every K: what was driven is
            // exactly what was planned, summed over shards.
            assert_eq!(
                out.metrics.driven_distance,
                out.total_assigned_distance(),
                "trace {i}, K={shards}: driven == planned"
            );
            // Every request gets exactly one terminal fate somewhere.
            assert_eq!(
                out.metrics.served + out.metrics.rejected + out.metrics.cancelled,
                out.metrics.requests,
                "trace {i}, K={shards}: terminal fates"
            );
            assert_eq!(out.metrics.requests, sc.requests.len());
            // Per-shard handoff ledgers balance the global count.
            let inflow: usize = out.shards.iter().map(|s| s.handoffs_in).sum();
            let outflow: usize = out.shards.iter().map(|s| s.handoffs_out).sum();
            assert_eq!(inflow, out.handoffs);
            assert_eq!(outflow, out.handoffs);
            // Quality is a recorded trade-off, not a silent one.
            println!(
                "trace {i} K={shards}: served {}/{} (K=1: {}), UC {} (K=1: {}), handoffs {}",
                out.metrics.served,
                out.metrics.requests,
                baseline.metrics.served,
                out.metrics.unified_cost.value(),
                baseline.metrics.unified_cost.value(),
                out.handoffs
            );
        }
    }
}

#[test]
fn strict_boundaries_are_audit_clean_and_never_hand_off() {
    let sc = scenario(71, 0.15, (1, 2), 0.4);
    for shards in [2usize, 4, 8] {
        let out = run_sharded(&sc, shards, BoundaryPolicy::Strict);
        assert!(out.audit_errors.is_empty(), "K={shards}");
        assert_eq!(out.handoffs, 0);
        assert_eq!(
            out.metrics.driven_distance,
            out.total_assigned_distance(),
            "K={shards}"
        );
        assert_eq!(
            out.metrics.served + out.metrics.rejected + out.metrics.cancelled,
            out.metrics.requests
        );
    }
}

#[test]
fn borrowing_recovers_quality_where_strict_rejects() {
    // The case the Borrow policy exists for: the whole fleet starts in
    // one corner region while demand is city-wide, so under strict
    // sharding every shard but one begins unservable. Borrowing must
    // strictly beat strict sharding here by migrating idle workers
    // toward the stranded demand.
    let mut sc = ScenarioBuilder::named("seam")
        .grid_city(12, 12)
        .workers(6)
        .requests(120)
        .horizon(40 * MINUTE_CS)
        .deadline_offset(8 * MINUTE_CS)
        .hotspots(4)
        .inter_region_trips(0.5)
        .seed(5)
        .build();
    // Park every worker on the bottom-left corner block (vertices
    // 0..6 of the row-major grid): shard 0 for every K tested.
    for (i, w) in sc.workers.iter_mut().enumerate() {
        w.origin = VertexId(i as u32);
    }
    for shards in [2usize, 4] {
        let strict = run_sharded(&sc, shards, BoundaryPolicy::Strict);
        let borrow = run_sharded(&sc, shards, BoundaryPolicy::Borrow { probe: 3 });
        assert!(strict.audit_errors.is_empty());
        assert!(borrow.audit_errors.is_empty());
        assert!(
            borrow.metrics.served > strict.metrics.served,
            "K={shards}: borrow served {} !> strict {}",
            borrow.metrics.served,
            strict.metrics.served
        );
        assert!(borrow.handoffs > 0, "K={shards}: no worker crossed a seam");
        println!(
            "K={shards}: strict served {}, borrow served {} ({} handoffs)",
            strict.metrics.served, borrow.metrics.served, borrow.handoffs
        );
    }
}
