//! The benchmark's own checks of its decorators and replay loops.

use std::sync::Arc;

use road_network::oracle::{CountingOracle, DistanceOracle};
use urpsm_core::planner::{Planner, PlannerConfig, PruneGreedyDp};
use urpsm_simulator::engine::SimConfig;
use urpsm_simulator::event_log_digest;
use urpsm_simulator::service::MobilityService;
use urpsm_workloads::fleet::FleetMix;
use urpsm_workloads::scenario::ScenarioBuilder;
use urpsm_workloads::MINUTE_CS;

use crate::trace::{self, TracedOracle, TracedPlanner};
use crate::workload::{check_recovery, preloaded_ingest_digest, replay, Setup, Workload};

/// Planner-issued plus motion-issued oracle calls add up to what a
/// `CountingOracle` underneath saw, and decorating changes nothing.
#[test]
fn oracle_split_is_exhaustive_and_invisible() {
    let scenario = ScenarioBuilder::named("split")
        .grid_city(8, 8)
        .workers(6)
        .requests(150)
        .horizon(40 * MINUTE_CS)
        .cancel_rate(0.1)
        .fleet_churn(1, 1)
        .fleet_mix(FleetMix::single())
        .seed(11)
        .build();
    let events = scenario.event_stream();
    let run = |oracle: Arc<dyn DistanceOracle>, traced: bool| {
        let planner: Box<dyn Planner> = Box::new(PruneGreedyDp::from_config(PlannerConfig {
            alpha: 1,
            strict_economics: false,
            threads: 1,
        }));
        let planner: Box<dyn Planner> = if traced {
            Box::new(TracedPlanner::new(planner, 0))
        } else {
            planner
        };
        let config = SimConfig {
            grid_cell_m: scenario.grid_cell_m,
            alpha: 1,
            drain: true,
            threads: 1,
            congestion: None,
            td_oracle: false,
            classes: None,
        };
        let mut service = MobilityService::new(
            oracle,
            scenario.workers.clone(),
            planner,
            config,
            events[0].time(),
        );
        for &e in &events {
            service.submit(e);
        }
        let out = service.drain();
        assert!(out.audit_errors.is_empty(), "{:?}", out.audit_errors);
        event_log_digest(&out.events)
    };

    let plain = run(scenario.oracle.clone(), false);
    let counting = Arc::new(CountingOracle::new(scenario.oracle.clone()));
    trace::start(events.len(), 1);
    let decorated = run(Arc::new(TracedOracle::new(counting.clone())), true);
    trace::stop();

    let c = trace::counts();
    let total = counting.stats();
    assert_eq!(c.plan_dis + c.motion_dis, total.dis);
    assert_eq!(c.plan_path + c.motion_path, total.path);
    assert_eq!(c.plan_euc + c.motion_euc, total.euc);
    assert!(c.plan_dis > 0 && c.motion_dis > 0 && c.motion_path > 0);
    assert_eq!(decorated, plain);
}

/// The live tick-by-tick feed lands on the same event log as preloading
/// the whole stream through `IngestServer::run`, and WAL recovery
/// reproduces the final checkpoint.
#[test]
fn live_ingest_feed_matches_preloaded_run() {
    let dir = std::env::temp_dir().join(format!("urpsm-perfbench-test-{}", std::process::id()));
    let setup = Setup::build(Workload::MetropolisIngest, 5, true, &dir);
    let live = replay(&setup, false);
    assert!(live.errors.is_empty(), "{:?}", live.errors);
    assert_eq!(check_recovery(&setup, &live), None);
    assert_eq!(live.answered, live.offered);
    assert_eq!(live.digest, preloaded_ingest_digest(&setup));
    setup.cleanup();
    let _ = std::fs::remove_dir_all(&dir);
}

/// A traced replay reproduces the untraced digest, and its spans
/// account for the replay wall time.
#[test]
fn traced_replay_matches_untraced() {
    let dir = std::env::temp_dir().join(format!("urpsm-perfbench-trace-{}", std::process::id()));
    for workload in [Workload::ChengduRush, Workload::MetropolisIngest] {
        let setup = Setup::build(workload, 3, true, &dir);
        let plain = replay(&setup, false);
        let traced = replay(&setup, true);
        assert_eq!(plain.digest, traced.digest, "{}", workload.name());
        assert!(traced.errors.is_empty(), "{:?}", traced.errors);
        let k = trace::fold(&trace::spans());
        let self_ns: u64 = k.iter().map(|t| t.self_ns).sum();
        let wall_ns = traced.wall_s * 1e9;
        assert!(
            (self_ns as f64) <= wall_ns && self_ns as f64 >= 0.9 * wall_ns,
            "{}: self {self_ns} ns vs wall {wall_ns} ns",
            workload.name()
        );
        setup.cleanup();
    }
    let _ = std::fs::remove_dir_all(&dir);
}
