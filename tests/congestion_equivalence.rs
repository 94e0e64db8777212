//! The congestion differential suite (DESIGN.md §7), pinned byte for
//! byte:
//!
//! * the **flat** profile (every multiplier exactly 1.0) is the
//!   identity — event logs and costs equal the no-profile run, plain
//!   and at shard counts 1/4;
//! * a **peak** profile strictly increases planned arrival times on a
//!   pinned trace while leaving the free-flow economics (Δ*, planned
//!   distance) untouched;
//! * cancellations in congested runs keep the economics exact:
//!   `driven == Σ planned` per worker, plus the audit's replayed
//!   ledger `planned == Σ deltas − Σ freed`.
//!
//! Every service-level gate runs twice: with committed legs on the
//! profile overlay and routed through the time-dependent oracle
//! (`SimConfig::td_oracle`).

use std::sync::Arc;

use urpsm::prelude::*;
use urpsm_core::event::PlatformEvent;

fn run(sc: &Scenario, congestion: Option<Arc<CongestionProfile>>, td_oracle: bool) -> SimOutcome {
    let cfg = PlannerConfig {
        alpha: sc.alpha,
        strict_economics: false,
        ..PlannerConfig::default()
    };
    let planner: Box<dyn Planner> = Box::new(PruneGreedyDp::from_config(cfg));
    let stream = sc.event_stream();
    let start = stream.first().map_or(0, PlatformEvent::time);
    let mut service = MobilityService::new(
        sc.oracle.clone(),
        sc.workers.clone(),
        planner,
        SimConfig {
            grid_cell_m: sc.grid_cell_m,
            alpha: sc.alpha,
            drain: true,
            threads: 0,
            congestion,
            td_oracle,
            classes: sc.classes.clone(),
        },
        start,
    );
    for event in stream {
        service.submit(event);
    }
    service.drain()
}

fn run_sharded(
    sc: &Scenario,
    shards: usize,
    congestion: Option<Arc<CongestionProfile>>,
    td_oracle: bool,
) -> ShardedOutcome {
    let stream = sc.event_stream();
    let start = stream.first().map_or(0, PlatformEvent::time);
    let mut service = ShardedService::new(
        sc.oracle.clone(),
        sc.workers.clone(),
        |_| Box::new(PruneGreedyDp::new()) as Box<dyn Planner>,
        ShardConfig {
            shards,
            threads: 1,
            sim: SimConfig {
                grid_cell_m: sc.grid_cell_m,
                alpha: sc.alpha,
                drain: true,
                threads: 0,
                congestion,
                td_oracle,
                classes: sc.classes.clone(),
            },
            ..ShardConfig::default()
        },
        start,
    );
    for event in stream {
        service.submit(event);
    }
    service.drain()
}

/// A churny scenario: cancellations and fleet churn interleave route
/// surgery with planning, the worst case for schedule bookkeeping.
fn churny_scenario(seed: u64) -> Scenario {
    ScenarioBuilder::named("congestion-eq")
        .grid_city(10, 10)
        .workers(6)
        .requests(140)
        .horizon(35 * MINUTE_CS)
        .deadline_offset(8 * MINUTE_CS)
        .cancel_rate(0.15)
        .cancel_delay(3 * MINUTE_CS)
        .fleet_churn(2, 2)
        .seed(seed)
        .build()
}

fn flat() -> Option<Arc<CongestionProfile>> {
    Some(Arc::new(CongestionProfile::flat()))
}

#[test]
fn flat_profile_is_byte_identical_to_no_profile() {
    for seed in [3u64, 2018] {
        let sc = churny_scenario(seed);
        let base = run(&sc, None, false);
        assert!(base.audit_errors.is_empty(), "seed {seed}");
        assert!(
            base.metrics.cancelled > 0,
            "seed {seed}: scenario must exercise the cancel path"
        );
        for td in [false, true] {
            for (label, congestion) in [("none", None), ("flat", flat())] {
                let other = run(&sc, congestion, td);
                let cell = format!("seed {seed} td {td} profile {label}");
                assert_eq!(base.events, other.events, "{cell}: event log");
                assert_eq!(
                    base.metrics.unified_cost, other.metrics.unified_cost,
                    "{cell}: unified cost"
                );
                assert_eq!(
                    base.metrics.driven_distance, other.metrics.driven_distance,
                    "{cell}: driven"
                );
                assert!(other.audit_errors.is_empty(), "{cell}");
            }
        }
    }
}

#[test]
fn flat_profile_is_byte_identical_across_shards() {
    let sc = churny_scenario(2018);
    let base = run(&sc, None, false);
    assert!(base.audit_errors.is_empty());
    for td in [false, true] {
        for shards in [1usize, 4] {
            let none = run_sharded(&sc, shards, None, td);
            let flat_run = run_sharded(&sc, shards, flat(), td);
            assert!(none.audit_errors.is_empty(), "td {td} shards {shards}");
            assert!(flat_run.audit_errors.is_empty(), "td {td} shards {shards}");
            assert_eq!(
                none.events, flat_run.events,
                "td {td} shards {shards}: flat profile changed the sharded log"
            );
            assert_eq!(none.metrics.unified_cost, flat_run.metrics.unified_cost);
            if shards == 1 {
                // One shard is byte-identical to the plain service —
                // with and without the (identity) profile.
                assert_eq!(base.events, flat_run.events, "td {td}");
            }
        }
    }
}

/// Pinned trace: one worker on a line city, three sequential rides
/// released inside the morning peak. The two-peak profile must strictly
/// increase every planned arrival while leaving Δ* (free-flow
/// distance) untouched.
#[test]
fn peak_profile_strictly_increases_planned_arrivals() {
    use road_network::congestion::HOUR_CS;
    use urpsm_core::types::{Request, RequestId, Worker, WorkerId};

    let mut b = NetworkBuilder::new();
    for i in 0..40 {
        b.add_vertex(Point::new(f64::from(i), 0.0));
    }
    for i in 1..40u32 {
        b.add_edge_with_cost(VertexId(i - 1), VertexId(i), 100)
            .unwrap();
    }
    b.set_top_speed_mps(1.0);
    let oracle: Arc<dyn DistanceOracle> =
        Arc::new(MatrixOracle::from_network(&b.finish().unwrap()));
    let fleet = vec![Worker {
        class: Default::default(),
        id: WorkerId(0),
        origin: VertexId(0),
        capacity: 4,
    }];
    let t0 = 8 * HOUR_CS; // inside the 1.7× bucket
    let requests: Vec<Request> = [(0u32, 5u32, 10u32), (1, 12, 20), (2, 25, 30)]
        .iter()
        .map(|&(id, o, d)| Request {
            class: Default::default(),
            id: RequestId(id),
            origin: VertexId(o),
            destination: VertexId(d),
            release: t0 + u64::from(id) * 1_000,
            deadline: t0 + 4 * HOUR_CS,
            penalty: 1_000_000_000,
            capacity: 1,
        })
        .collect();

    let outcome = |congestion: Option<Arc<CongestionProfile>>| {
        let sim = Simulation::new(
            oracle.clone(),
            fleet.clone(),
            requests.clone(),
            SimConfig {
                grid_cell_m: 2_000.0,
                alpha: 1,
                drain: true,
                threads: 0,
                congestion,
                ..SimConfig::default()
            },
        )
        .unwrap();
        let mut planner = PruneGreedyDp::new();
        sim.run(&mut planner)
    };

    let free = outcome(None);
    let jam = outcome(Some(Arc::new(CongestionProfile::chengdu_two_peak())));
    assert!(free.audit_errors.is_empty(), "{:?}", free.audit_errors);
    assert!(jam.audit_errors.is_empty(), "{:?}", jam.audit_errors);

    // Same decisions, same free-flow economics.
    let decisions = |o: &SimOutcome| -> Vec<SimEvent> {
        o.events
            .iter()
            .filter(|e| matches!(e, SimEvent::Assigned { .. } | SimEvent::Rejected { .. }))
            .copied()
            .collect()
    };
    assert_eq!(decisions(&free), decisions(&jam));
    assert_eq!(free.metrics.unified_cost, jam.metrics.unified_cost);
    assert_eq!(free.metrics.driven_distance, jam.metrics.driven_distance);

    // Every pickup/delivery happens strictly later under the peak
    // profile (the whole trace sits in stretched buckets).
    let stops = |o: &SimOutcome| -> Vec<(RequestId, u64)> {
        o.events
            .iter()
            .filter_map(|e| match *e {
                SimEvent::Pickup { t, r, .. } => Some((r, t)),
                SimEvent::Delivery { t, r, .. } => Some((r, t)),
                _ => None,
            })
            .collect()
    };
    let (free_stops, jam_stops) = (stops(&free), stops(&jam));
    assert_eq!(free_stops.len(), 6);
    assert_eq!(jam_stops.len(), 6);
    for ((r_a, t_free), (r_b, t_jam)) in free_stops.iter().zip(&jam_stops) {
        assert_eq!(r_a, r_b, "stop order must be preserved");
        assert!(
            t_jam > t_free,
            "{r_a}: peak arrival {t_jam} not after free-flow {t_free}"
        );
    }
    // Pinned head of the trace: the first pickup (vertex 5, 500 cs of
    // free-flow driving from t0) stretches by exactly 1.7×.
    assert_eq!(free_stops[0], (RequestId(0), t0 + 500));
    assert_eq!(jam_stops[0], (RequestId(0), t0 + 850));
}

/// The satellite-3 acceptance: cancellations in congested runs keep
/// `driven == Σ planned` exact — including across shards.
#[test]
fn congested_cancellations_keep_economics_exact() {
    let sc = churny_scenario(2018);
    let jam: Option<Arc<CongestionProfile>> = Some(Arc::new(
        CongestionProfile::constant("x1.4", 1.4).expect("valid profile"),
    ));

    for td in [false, true] {
        let out = run(&sc, jam.clone(), td);
        assert_eq!(out.audit_errors, Vec::<String>::new(), "td {td}");
        assert!(out.metrics.cancelled > 0, "cancel path must run congested");
        assert_eq!(
            out.metrics.driven_distance,
            out.state.total_assigned_distance(),
            "td {td}: driven == Σ planned must survive congested cancellations"
        );

        // A rerun meets the scenario oracle's warm cache and must
        // replay the same congested log.
        let again = run(&sc, jam.clone(), td);
        assert_eq!(
            out.events, again.events,
            "td {td}: a rerun changed a congested log"
        );

        // And the geo-sharded plane keeps every shard's ledger exact.
        let sharded = run_sharded(&sc, 4, jam.clone(), td);
        assert_eq!(sharded.audit_errors, Vec::<String>::new(), "td {td}");
        assert_eq!(
            sharded.metrics.driven_distance,
            sharded.total_assigned_distance(),
            "td {td}"
        );
    }
}
