//! The TD-oracle differential suite (DESIGN.md §10), pinned byte for
//! byte:
//!
//! * with a **flat** profile, routing committed legs through the
//!   time-dependent oracle (`SimConfig::td_oracle`) is the identity —
//!   event logs and costs equal the overlay-provider run *and* the
//!   no-profile run, plain and at shard counts 1/4, because a flat TD
//!   query collapses to the static hub-label/Dijkstra distance, bit for
//!   bit;
//! * with the **two-peak** profile the TD oracle stays audit-clean and
//!   deterministic across reruns, while actually rerouting (TD legs
//!   never exceed the naive stretched overlay, and on a detour fixture
//!   they beat it strictly).

use std::sync::Arc;

use urpsm::prelude::*;
use urpsm_core::event::PlatformEvent;

fn run_with(
    sc: &Scenario,
    planner: Box<dyn Planner>,
    congestion: Option<Arc<CongestionProfile>>,
    td_oracle: bool,
) -> SimOutcome {
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

fn run(sc: &Scenario, congestion: Option<Arc<CongestionProfile>>, td_oracle: bool) -> SimOutcome {
    let cfg = PlannerConfig {
        alpha: sc.alpha,
        strict_economics: false,
        ..PlannerConfig::default()
    };
    run_with(
        sc,
        Box::new(PruneGreedyDp::from_config(cfg)),
        congestion,
        td_oracle,
    )
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

/// Same churny shape as the congestion suite: cancellations and fleet
/// churn interleave route surgery with planning.
fn churny_scenario(seed: u64) -> Scenario {
    ScenarioBuilder::named("td-eq")
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

/// The scenario oracle must expose its backing graph, or `td_oracle`
/// would silently fall back to the overlay provider and this whole
/// suite would pin nothing.
#[test]
fn scenario_oracles_expose_their_backing_network() {
    let sc = churny_scenario(3);
    let g = sc
        .oracle
        .backing_network()
        .expect("LRU-fronted scenario oracle must forward backing_network");
    assert_eq!(g.num_vertices(), sc.oracle.num_vertices());
}

#[test]
fn flat_td_oracle_is_byte_identical_to_no_profile() {
    for seed in [3u64, 2018] {
        let sc = churny_scenario(seed);
        let base = run(&sc, None, false);
        assert!(base.audit_errors.is_empty(), "seed {seed}");
        assert!(
            base.metrics.cancelled > 0,
            "seed {seed}: scenario must exercise the cancel path"
        );
        for (label, congestion, td) in [
            ("overlay", flat(), false),
            ("td", flat(), true),
            ("td-no-profile", None, true),
        ] {
            let other = run(&sc, congestion, td);
            assert_eq!(
                base.events, other.events,
                "seed {seed} case {label}: event log"
            );
            assert_eq!(
                base.metrics.unified_cost, other.metrics.unified_cost,
                "seed {seed} case {label}: unified cost"
            );
            assert_eq!(
                base.metrics.driven_distance, other.metrics.driven_distance,
                "seed {seed} case {label}: driven"
            );
            assert!(other.audit_errors.is_empty());
        }
    }
}

#[test]
fn flat_td_oracle_is_byte_identical_across_shards() {
    let sc = churny_scenario(2018);
    let base = run(&sc, None, false);
    assert!(base.audit_errors.is_empty());
    for shards in [1usize, 4] {
        let plain = run_sharded(&sc, shards, flat(), false);
        let td = run_sharded(&sc, shards, flat(), true);
        assert!(plain.audit_errors.is_empty(), "shards {shards}");
        assert!(td.audit_errors.is_empty(), "shards {shards}");
        assert_eq!(
            plain.events, td.events,
            "shards {shards}: flat TD oracle changed the sharded log"
        );
        assert_eq!(plain.metrics.unified_cost, td.metrics.unified_cost);
        if shards == 1 {
            // One shard collapses to the plain service, TD or not.
            assert_eq!(base.events, td.events);
        }
    }
}

/// Two-peak TD runs stay audit-clean, deterministic across reruns (the
/// second run meets the scenario oracle's warm cache), and keep the
/// economics ledger exact through cancellations.
#[test]
fn congested_td_runs_stay_exact_and_deterministic() {
    let sc = churny_scenario(2018);
    let jam: Option<Arc<CongestionProfile>> = Some(Arc::new(CongestionProfile::chengdu_two_peak()));

    let out = run(&sc, jam.clone(), true);
    assert_eq!(out.audit_errors, Vec::<String>::new());
    assert!(out.metrics.cancelled > 0, "cancel path must run congested");
    assert_eq!(
        out.metrics.driven_distance,
        out.state.total_assigned_distance(),
        "driven == Σ planned must survive TD rerouting"
    );

    let again = run(&sc, jam.clone(), true);
    assert_eq!(out.events, again.events, "a rerun changed a TD log");

    let sharded = run_sharded(&sc, 4, jam, true);
    assert_eq!(sharded.audit_errors, Vec::<String>::new());
    assert_eq!(
        sharded.metrics.driven_distance,
        sharded.total_assigned_distance()
    );
}

/// A stream dense enough that workers carry multi-stop routes and get
/// snapped mid-leg by later commits — the precondition for both ledger
/// regressions pinned below. Generous deadlines are what make routes
/// actually share; the churn knobs keep cancellation bridges and
/// departure reassignment in play.
fn snap_heavy_scenario(seed: u64) -> Scenario {
    ScenarioBuilder::named("td-ledger")
        .grid_city(10, 10)
        .workers(4)
        .requests(200)
        .horizon(30 * MINUTE_CS)
        .deadline_offset(15 * MINUTE_CS)
        .cancel_rate(0.15)
        .cancel_delay(3 * MINUTE_CS)
        .fleet_churn(2, 2)
        .seed(seed)
        .build()
}

/// The PR-8 ledger regressions, end to end. A *region-structured* jam
/// sends TD detours off the static geodesic — the uniform two-peak
/// tests above can never produce that state (uniform stretch keeps the
/// TD path identical to the static one) — and a mid-leg snap then
/// re-bases the head leg to a driven remainder that differs from
/// `dis(l_0, l_1)`. Two distinct bugs lived there, and each listed
/// `(planner, seed, jam)` triple reproduced one before its fix:
///
/// * insertion operators re-querying intact hops from the oracle
///   instead of the stored legs leaked the difference into every
///   committed delta (tshare's basic insertion tripped the drain
///   audit first);
/// * the motion cache key `(l_0, l_1, arr[1])` missed reorders and
///   front insertions that re-base the head leg while every keyed
///   coordinate collides — under TD the arrival at `l_1` is a property
///   of the physical path, which the snapped vertex lies on — so snaps
///   kept crediting from the stale expansion.
#[test]
fn regional_td_runs_keep_the_ledger_exact_for_every_operator() {
    use road_network::congestion::HOUR_CS;

    type PlannerCtor = Box<dyn Fn() -> Box<dyn Planner>>;
    let cases: Vec<(&str, PlannerCtor, u64, u32)> = vec![
        // Stored-leg costing in basic insertion.
        (
            "tshare",
            Box::new(|| Box::new(TSharePlanner::new())),
            0,
            4000,
        ),
        // Motion cache-key collision via a front insertion onto the
        // same first stop.
        (
            "tshare",
            Box::new(|| Box::new(TSharePlanner::new())),
            4,
            6000,
        ),
        // Motion cache-key collision via kinetic reorders.
        (
            "kinetic",
            Box::new(|| Box::new(KineticPlanner::new())),
            1,
            6000,
        ),
        (
            "kinetic",
            Box::new(|| Box::new(KineticPlanner::new())),
            4,
            6000,
        ),
        // Same family through the linear-DP operator.
        (
            "pruneGreedyDP",
            Box::new(|| Box::new(PruneGreedyDp::new())),
            2,
            4000,
        ),
    ];
    for (name, mk, seed, jam_pm) in &cases {
        let sc = snap_heavy_scenario(*seed);
        let g = sc
            .oracle
            .backing_network()
            .expect("backing network")
            .clone();
        let points: Vec<_> = (0..g.num_vertices())
            .map(|i| g.point(VertexId(i as u32)))
            .collect();
        let regions = CongestionProfile::regionize(&points, 3, 3);
        // All-day jam in the center cell, free flow elsewhere: strong
        // enough that goal-directed TD paths detour around downtown.
        let tables: Vec<Vec<u32>> = (0..9)
            .map(|r| vec![if r == 4 { *jam_pm } else { 1000 }])
            .collect();
        let jam = Arc::new(
            CongestionProfile::per_region("core-jam", 24 * HOUR_CS, tables, regions)
                .expect("well-formed profile"),
        );
        let out = run_with(&sc, mk(), Some(jam), true);
        assert_eq!(
            out.audit_errors,
            Vec::<String>::new(),
            "{name} seed={seed} jam={jam_pm}"
        );
        assert_eq!(
            out.metrics.driven_distance,
            out.state.total_assigned_distance(),
            "{name} seed={seed} jam={jam_pm}: driven == Σ planned must survive regional TD rerouting"
        );
        assert!(out.metrics.served > 0, "{name}: stream must be exercised");
    }
}

/// The point of TD rerouting: on a fixture whose direct road leaves a
/// jammed region slowly, the TD provider routes around the jam while
/// the naive overlay stretches the whole static leg by the tail's
/// multiplier. Deliveries are strictly earlier, end to end through
/// the simulator.
#[test]
fn td_oracle_routes_around_a_jam_the_overlay_cannot() {
    use road_network::congestion::HOUR_CS;
    use road_network::oracle::HubLabelOracle;
    use urpsm_core::types::{Request, RequestId, Worker, WorkerId};

    // Vertex 0 sits in the jammed region (4× all day); 1 and 2 are
    // free-flow. Region attribution is by each edge's tail:
    //   0 -200- 2            direct  (static 200, TD 4×200 = 800)
    //   0 -10-  1 -300- 2    detour  (TD 4×10 + 300 = 340)
    // The overlay stretches the static leg 0→2 wholesale (from-vertex
    // region): 800. The TD oracle escapes the jam via vertex 1: 340.
    let mut b = NetworkBuilder::new();
    b.add_vertex(Point::new(0.0, 0.0));
    b.add_vertex(Point::new(0.05, 0.01));
    b.add_vertex(Point::new(0.1, 0.0));
    b.add_edge_with_cost(VertexId(0), VertexId(1), 10).unwrap();
    b.add_edge_with_cost(VertexId(1), VertexId(2), 300).unwrap();
    b.add_edge_with_cost(VertexId(0), VertexId(2), 200).unwrap();
    b.set_top_speed_mps(1.0);
    let network = Arc::new(b.finish().unwrap());
    let oracle: Arc<dyn DistanceOracle> = Arc::new(HubLabelOracle::build(network.clone()));
    assert_eq!(oracle.dis(VertexId(0), VertexId(2)), 200);

    let profile = Arc::new(
        CongestionProfile::per_region(
            "jam-at-origin",
            24 * HOUR_CS,
            vec![vec![1000], vec![4000]],
            vec![1, 0, 0],
        )
        .unwrap(),
    );

    let fleet = vec![Worker {
        class: Default::default(),
        id: WorkerId(0),
        origin: VertexId(0),
        capacity: 4,
    }];
    let t0 = 8 * HOUR_CS;
    let requests = vec![Request {
        class: Default::default(),
        id: RequestId(0),
        origin: VertexId(0),
        destination: VertexId(2),
        release: t0,
        deadline: t0 + HOUR_CS,
        penalty: 1_000_000_000,
        capacity: 1,
    }];

    let outcome = |td_oracle: bool| {
        let sim = Simulation::new(
            oracle.clone(),
            fleet.clone(),
            requests.clone(),
            SimConfig {
                grid_cell_m: 10_000.0,
                alpha: 1,
                drain: true,
                threads: 0,
                congestion: Some(profile.clone()),
                td_oracle,
                classes: None,
            },
        )
        .unwrap();
        let mut planner = PruneGreedyDp::new();
        sim.run(&mut planner)
    };

    let overlay = outcome(false);
    let td = outcome(true);
    assert!(
        overlay.audit_errors.is_empty(),
        "{:?}",
        overlay.audit_errors
    );
    assert!(td.audit_errors.is_empty(), "{:?}", td.audit_errors);

    let delivery = |o: &SimOutcome| {
        o.events
            .iter()
            .find_map(|e| match *e {
                SimEvent::Delivery { t, .. } => Some(t),
                _ => None,
            })
            .expect("request must be served")
    };
    // Overlay: static leg 0→2 stretched 4× ⇒ t0 + 800.
    // TD oracle: reroutes over 0-1-2 ⇒ t0 + 340.
    assert_eq!(delivery(&overlay), t0 + 800);
    assert_eq!(delivery(&td), t0 + 340);
    // Free-flow economics (Δ*, unified cost) are shared: rerouting is
    // a travel-time concern, not a pricing one.
    assert_eq!(overlay.metrics.unified_cost, td.metrics.unified_cost);
}
