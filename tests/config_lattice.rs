//! The configuration lattice: every axis the service can be configured
//! along, set explicitly, on one small seeded stream with cancellations
//! and fleet churn.
//!
//! The axes are topology {plain `MobilityService`, `ShardedService` at
//! K = 1 and K = 4} × shard fan-out width {1, 4} (sharded cells only:
//! it is `ShardConfig::threads`, and the plain service has no fan-out)
//! × profile {flat, `chengdu_two_peak`} × TD oracle {off, on} × fleet
//! {single, mixed} × observability gate {off, on} — 16 plain cells plus
//! 64 sharded cells, 80 in total. The stream spans
//! ten hours from midnight, so the two-peak profile's morning peak
//! stretches part of it. Pinned:
//!
//! * every cell is audit-clean, with `driven == Σ planned`;
//! * width and the observability gate never change a run: inside each
//!   (fleet, profile, TD, topology) group the event-log digest and the
//!   metrics are byte-identical;
//! * on the flat profile, plain and K = 1 with the TD oracle off and on
//!   all equal the plain TD-off run, for both fleets;
//! * on the two-peak profile, K = 1 equals plain for the same TD
//!   setting.
//!
//! K = 4 legitimately differs from plain (sharding trades optimality
//! for locality), and a mixed fleet on the two-peak profile
//! legitimately differs between TD off and on (rerouting changes the
//! class-stretched schedules), so those pairs are held to the audit and
//! the ledger only.
//!
//! A second test pins that no `Default` reads the process environment.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

use urpsm::obs::ring::DEFAULT_RING_CAPACITY;
use urpsm::prelude::*;

/// The observability gate is process-global: the lattice cells that
/// open it and the purity test that reads it take turns.
static GATE: Mutex<()> = Mutex::new(());

#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
enum Topology {
    Plain,
    Sharded(usize),
}

#[derive(Clone, Copy, Debug)]
struct Cell {
    /// The shard broadcast's fan-out width; plain cells ignore it.
    width: usize,
    topology: Topology,
    two_peak: bool,
    td_oracle: bool,
    obs: bool,
}

/// What a cell is compared on: the event-log digest and the metrics
/// with the wall-clock field zeroed.
#[derive(Debug, PartialEq)]
struct Run {
    digest: u64,
    metrics: SimMetrics,
}

fn scenario(mixed: bool) -> Scenario {
    let builder = ScenarioBuilder::named("lattice")
        .grid_city(8, 8)
        .workers(6)
        .requests(60)
        .horizon(10 * 60 * MINUTE_CS)
        .cancel_rate(0.1)
        .fleet_churn(1, 1)
        .seed(11);
    if mixed {
        builder.fleet_mix(FleetMix::mixed()).build()
    } else {
        builder.build()
    }
}

fn run(sc: &Scenario, cell: Cell) -> Run {
    let ctx = format!("{cell:?}, mixed fleet {}", sc.classes.is_some());
    let profile = if cell.two_peak {
        CongestionProfile::chengdu_two_peak()
    } else {
        CongestionProfile::flat()
    };
    let sim = SimConfig {
        grid_cell_m: sc.grid_cell_m,
        alpha: sc.alpha,
        drain: true,
        threads: 0,
        congestion: Some(Arc::new(profile)),
        td_oracle: cell.td_oracle,
        classes: sc.classes.clone(),
    };
    let planner = || -> Box<dyn Planner> {
        Box::new(PruneGreedyDp::from_config(PlannerConfig {
            alpha: sc.alpha,
            strict_economics: false,
            ..PlannerConfig::default()
        }))
    };
    let stream = sc.event_stream();
    let start = stream.first().map_or(0, PlatformEvent::time);

    urpsm::obs::set_enabled(cell.obs);
    let (events, metrics, audit_errors, planned) = match cell.topology {
        Topology::Plain => {
            let mut service =
                MobilityService::new(sc.oracle.clone(), sc.workers.clone(), planner(), sim, start);
            for event in stream {
                service.submit(event);
            }
            let out = service.drain();
            let planned = out.state.total_assigned_distance();
            (out.events, out.metrics, out.audit_errors, planned)
        }
        Topology::Sharded(shards) => {
            let mut service = ShardedService::new(
                sc.oracle.clone(),
                sc.workers.clone(),
                |_| planner(),
                ShardConfig {
                    shards,
                    boundary: BoundaryPolicy::Borrow { probe: 3 },
                    threads: cell.width,
                    sim,
                },
                start,
            );
            for event in stream {
                service.submit(event);
            }
            let out = service.drain();
            let planned = out.total_assigned_distance();
            (out.events, out.metrics, out.audit_errors, planned)
        }
    };
    urpsm::obs::set_enabled(false);

    assert!(audit_errors.is_empty(), "{ctx}: {audit_errors:?}");
    assert_eq!(
        metrics.driven_distance, planned,
        "{ctx}: driven != Σ planned"
    );
    assert_eq!(
        metrics.served + metrics.rejected + metrics.cancelled,
        metrics.requests,
        "{ctx}: request ledger"
    );
    Run {
        digest: event_log_digest(&events),
        metrics: SimMetrics {
            planning_time: std::time::Duration::ZERO,
            ..metrics
        },
    }
}

#[test]
fn every_lattice_cell_is_clean_and_the_equivalence_classes_hold() {
    let _gate = GATE.lock().unwrap_or_else(|e| e.into_inner());
    let topologies = [Topology::Plain, Topology::Sharded(1), Topology::Sharded(4)];
    let mut cells = 0;
    for mixed in [false, true] {
        let sc = scenario(mixed);
        assert!(!sc.cancellations.is_empty(), "the stream must cancel");
        assert!(!sc.fleet_events.is_empty(), "the fleet must churn");
        // (two_peak, td_oracle, topology) → the group's first run.
        let mut groups: BTreeMap<(bool, bool, Topology), Run> = BTreeMap::new();
        for two_peak in [false, true] {
            for td_oracle in [false, true] {
                for topology in topologies {
                    let widths: &[usize] = match topology {
                        Topology::Plain => &[1],
                        Topology::Sharded(_) => &[1, 4],
                    };
                    for &width in widths {
                        for obs in [false, true] {
                            let cell = Cell {
                                width,
                                topology,
                                two_peak,
                                td_oracle,
                                obs,
                            };
                            let out = run(&sc, cell);
                            cells += 1;
                            let key = (two_peak, td_oracle, topology);
                            match groups.get(&key) {
                                Some(first) => {
                                    assert_eq!(&out, first, "mixed {mixed}, {cell:?}: width/obs")
                                }
                                None => {
                                    groups.insert(key, out);
                                }
                            }
                        }
                    }
                }
            }
        }

        let reference = &groups[&(false, false, Topology::Plain)];
        assert_ne!(
            groups[&(true, false, Topology::Plain)].digest,
            reference.digest,
            "mixed {mixed}: the two-peak profile must stretch the stream"
        );
        for td_oracle in [false, true] {
            for topology in [Topology::Plain, Topology::Sharded(1)] {
                assert_eq!(
                    &groups[&(false, td_oracle, topology)],
                    reference,
                    "mixed {mixed}, flat, td {td_oracle}, {topology:?}"
                );
            }
            assert_eq!(
                groups[&(true, td_oracle, Topology::Sharded(1))],
                groups[&(true, td_oracle, Topology::Plain)],
                "mixed {mixed}, two-peak, td {td_oracle}: K = 1 vs plain"
            );
        }
    }
    assert_eq!(cells, 80);
}

/// Every former environment knob set to a non-default value changes no
/// `Default` and no runtime gate.
#[test]
fn defaults_ignore_the_environment() {
    let _gate = GATE.lock().unwrap_or_else(|e| e.into_inner());
    for (var, value) in [
        ("URPSM_THREADS", "4"),
        ("URPSM_SHARDS", "4"),
        ("URPSM_CONGESTION", "chengdu-2peak"),
        ("URPSM_TD_ORACLE", "1"),
        ("URPSM_FLEET", "mixed"),
        ("URPSM_OBS", "1"),
        ("URPSM_OBS_RING", "16"),
        ("URPSM_INGEST_SCALE", "7"),
    ] {
        std::env::set_var(var, value);
    }

    assert_eq!(PlannerConfig::default().threads, 1);
    let sim = SimConfig::default();
    assert!(sim.congestion.is_none());
    assert!(!sim.td_oracle);
    assert_eq!(sim.threads, 0);
    assert_eq!(ShardConfig::default().shards, 1);

    let sc = ScenarioBuilder::named("purity")
        .grid_city(4, 4)
        .workers(5)
        .requests(5)
        .seed(1)
        .build();
    assert!(sc.classes.is_none(), "the default fleet is single-class");
    assert!(sc.workers.iter().all(|w| w.class == ClassId::default()));
    let sharded = urpsm::sharded(&sc, 0, |_| Box::new(PruneGreedyDp::new()));
    assert_eq!(sharded.num_shards(), 1);

    assert!(!urpsm::obs::enabled());
    assert_eq!(
        urpsm::obs::registry().ring.capacity(),
        DEFAULT_RING_CAPACITY
    );
}
