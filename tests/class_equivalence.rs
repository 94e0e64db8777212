//! The heterogeneous-fleet guardrails (DESIGN.md §12):
//!
//! * **Golden pins** — a single-class fleet must be *byte-identical* to
//!   the pre-class-refactor engine for every planner family. The
//!   numbers below were captured before `VehicleClass` existed; any
//!   drift means the class machinery leaked into the homogeneous path.
//! * **Seam containment** — a class-ineligible worker is never probed:
//!   the distance oracle sees exactly the same query stream whether the
//!   ineligible worker is present (and filtered at the candidate seam)
//!   or absent from the fleet entirely.
//! * **Metadata-only mixes** — a multi-class table whose classes all
//!   have the standard profile (unit speed, no range) changes requests,
//!   schedules and costs not at all.

use std::sync::Arc;

use urpsm::baselines::prelude::*;
use urpsm::network::matrix::MatrixOracle;
use urpsm::network::oracle::CountingOracle;
use urpsm::network::prelude::Point;
use urpsm::prelude::*;

fn golden_scenario() -> Scenario {
    ScenarioBuilder::named("golden")
        .grid_city(8, 8)
        .workers(6)
        .requests(60)
        .seed(42)
        .build()
}

/// Runs the golden scenario with every `SimConfig` field set.
fn run_pinned(sc: &Scenario, planner: Box<dyn Planner + '_>) -> SimOutcome {
    let start_time = sc.requests.first().map(|r| r.release).unwrap_or(0);
    let mut service = MobilityService::new(
        sc.oracle.clone(),
        sc.workers.clone(),
        planner,
        SimConfig {
            grid_cell_m: sc.grid_cell_m,
            alpha: sc.alpha,
            drain: true,
            threads: 0,
            congestion: None,
            td_oracle: false,
            classes: sc.classes.clone(),
        },
        start_time,
    );
    for event in sc.event_stream() {
        service.submit(event);
    }
    let out = service.drain();
    assert!(out.audit_errors.is_empty(), "{:?}", out.audit_errors);
    out
}

/// One pre-refactor golden: served / rejected counts and the exact
/// unified-cost decomposition.
struct Golden {
    served: usize,
    rejected: usize,
    distance: u64,
    penalty: u64,
}

fn assert_golden(name: &str, out: &SimOutcome, g: &Golden) {
    assert_eq!(out.metrics.served, g.served, "{name}: served drifted");
    assert_eq!(out.metrics.rejected, g.rejected, "{name}: rejected drifted");
    assert_eq!(
        out.metrics.unified_cost.total_distance, g.distance,
        "{name}: total distance drifted"
    );
    assert_eq!(
        out.metrics.unified_cost.total_penalty, g.penalty,
        "{name}: total penalty drifted"
    );
    assert_eq!(
        out.metrics.unified_cost.value(),
        g.distance + g.penalty,
        "{name}: α must be 1 on the golden scenario"
    );
    // The homogeneous fleet reports exactly one per-class bucket, and
    // it mirrors the aggregate.
    assert_eq!(out.metrics.per_class.len(), 1, "{name}");
    assert_eq!(out.metrics.per_class[0].served, g.served, "{name}");
}

#[test]
fn greedy_dp_matches_pre_class_golden() {
    let sc = golden_scenario();
    let out = run_pinned(&sc, Box::new(GreedyDp::new()));
    assert_golden(
        "GreedyDP",
        &out,
        &Golden {
            served: 53,
            rejected: 7,
            distance: 1_242_797,
            penalty: 1_833_000,
        },
    );
}

#[test]
fn prune_greedy_dp_matches_pre_class_golden() {
    let sc = golden_scenario();
    let out = run_pinned(&sc, Box::new(PruneGreedyDp::new()));
    assert_golden(
        "pruneGreedyDP",
        &out,
        &Golden {
            served: 53,
            rejected: 7,
            distance: 1_242_797,
            penalty: 1_833_000,
        },
    );
}

#[test]
fn kinetic_matches_pre_class_golden() {
    let sc = golden_scenario();
    let out = run_pinned(&sc, Box::new(KineticPlanner::new()));
    assert_golden(
        "kinetic",
        &out,
        &Golden {
            served: 53,
            rejected: 7,
            distance: 1_242_797,
            penalty: 1_833_000,
        },
    );
}

#[test]
fn tshare_matches_pre_class_golden() {
    let sc = golden_scenario();
    let out = run_pinned(&sc, Box::new(TSharePlanner::new()));
    assert_golden(
        "T-Share",
        &out,
        &Golden {
            served: 45,
            rejected: 15,
            distance: 1_120_429,
            penalty: 2_852_440,
        },
    );
}

#[test]
fn batch_matches_pre_class_golden() {
    let sc = golden_scenario();
    let out = run_pinned(&sc, Box::new(BatchPlanner::new()));
    assert_golden(
        "batch",
        &out,
        &Golden {
            served: 53,
            rejected: 7,
            distance: 1_264_386,
            penalty: 1_610_310,
        },
    );
}

// ── seam containment ─────────────────────────────────────────────────

fn line_counting_oracle(n: usize) -> Arc<CountingOracle<MatrixOracle>> {
    let rows: Vec<Vec<u64>> = (0..n)
        .map(|u| (0..n).map(|v| (u.abs_diff(v) as u64) * 150).collect())
        .collect();
    let points = (0..n).map(|k| Point::new(k as f64, 0.0)).collect();
    Arc::new(CountingOracle::new(MatrixOracle::from_matrix(
        &rows, points, 1.0,
    )))
}

fn two_class_table() -> Arc<ClassTable> {
    Arc::new(ClassTable::new(vec![
        VehicleClass::standard(),
        VehicleClass {
            name: "cargo",
            capacity: 2,
            speed_permille: 1_000,
            range: None,
        },
    ]))
}

/// A class-ineligible worker is *never probed*: the oracle's query
/// stream with the ineligible worker present (filtered at the
/// candidate seam) equals the stream with that worker absent from the
/// fleet entirely. If eligibility were decided later — inside the DP,
/// say — the present-but-ineligible worker would add lower-bound or
/// probe queries and the counts would differ.
#[test]
fn class_ineligible_worker_is_never_probed() {
    let mk_worker = |id: u32, v: u32, class: ClassId| Worker {
        class,
        id: WorkerId(id),
        origin: VertexId(v),
        capacity: 4,
    };
    // The request only admits class 0, yet the *nearest* worker (at
    // vertex 40) is class 1 — the strongest bait for a planner that
    // filters too late.
    let request = Request {
        class: ClassConstraint::Only(ClassId(0)),
        id: RequestId(1),
        origin: VertexId(42),
        destination: VertexId(50),
        release: 0,
        deadline: 1_000_000,
        penalty: u64::MAX / 4,
        capacity: 1,
    };

    let mut planners: Vec<fn() -> Box<dyn Planner>> = Vec::new();
    planners.push(|| Box::new(GreedyDp::new()));
    planners.push(|| Box::new(PruneGreedyDp::new()));
    planners.push(|| Box::new(KineticPlanner::new()));

    for mk in planners {
        let run = |workers: &[Worker]| -> (Outcome, u64) {
            let oracle = line_counting_oracle(100);
            let mut state = PlatformState::new(oracle.clone(), workers, 20.0, 0);
            state.set_classes(two_class_table());
            let mut planner = mk();
            let out = planner.on_request(&mut state, &request);
            assert_eq!(out.len(), 1);
            (out[0].1, oracle.stats().dis)
        };

        // Full fleet: bait worker (class 1) flanked by eligible ones.
        let (out_full, q_full) = run(&[
            mk_worker(0, 0, ClassId(0)),
            mk_worker(1, 40, ClassId(1)),
            mk_worker(2, 80, ClassId(0)),
        ]);
        // Same fleet with the ineligible worker simply gone.
        let (out_without, q_without) =
            run(&[mk_worker(0, 0, ClassId(0)), mk_worker(1, 80, ClassId(0))]);

        match (out_full, out_without) {
            (
                Outcome::Assigned { worker, delta },
                Outcome::Assigned {
                    worker: w2,
                    delta: d2,
                },
            ) => {
                // Same physical worker (vertex 80) wins in both runs,
                // under its respective dense id, at the same cost.
                assert_eq!(worker, WorkerId(2));
                assert_eq!(w2, WorkerId(1));
                assert_eq!(delta, d2);
            }
            other => panic!("expected assignments, got {other:?}"),
        }
        assert_eq!(
            q_full, q_without,
            "the ineligible worker leaked distance queries past the candidate seam"
        );
    }
}

/// A multi-class table whose classes all carry the standard profile is
/// pure metadata: same events, same costs, same schedules as the
/// homogeneous run — only the per-class metrics split.
#[test]
fn standard_profile_mix_is_byte_identical_to_single_class() {
    let sc = golden_scenario();
    let single = run_pinned(&sc, Box::new(PruneGreedyDp::new()));

    // Same fleet, same requests, but workers alternate between two
    // standard-profile classes.
    let mut workers = sc.workers.clone();
    for (i, w) in workers.iter_mut().enumerate() {
        w.class = ClassId((i % 2) as u16);
    }
    let start_time = sc.requests.first().map(|r| r.release).unwrap_or(0);
    let mut service = MobilityService::new(
        sc.oracle.clone(),
        workers,
        Box::new(PruneGreedyDp::new()),
        SimConfig {
            grid_cell_m: sc.grid_cell_m,
            alpha: sc.alpha,
            drain: true,
            threads: 0,
            congestion: None,
            td_oracle: false,
            classes: Some(two_class_table()),
        },
        start_time,
    );
    for event in sc.event_stream() {
        service.submit(event);
    }
    let mixed = service.drain();
    assert!(mixed.audit_errors.is_empty());

    assert_eq!(single.events, mixed.events, "event logs must be identical");
    assert_eq!(single.metrics.unified_cost, mixed.metrics.unified_cost);
    assert_eq!(single.metrics.served, mixed.metrics.served);
    // The only visible difference: the breakdown now has two buckets
    // that partition the aggregate.
    assert_eq!(mixed.metrics.per_class.len(), 2);
    assert_eq!(
        mixed
            .metrics
            .per_class
            .iter()
            .map(|c| c.served)
            .sum::<usize>(),
        mixed.metrics.served
    );
    assert_eq!(
        mixed
            .metrics
            .per_class
            .iter()
            .map(|c| c.driven_distance)
            .sum::<u64>(),
        mixed.metrics.driven_distance
    );
}
