//! The three workloads: how each is built from a seed, and how one
//! closed-loop replay of it is driven through the program's public API.
//!
//! Every knob is set explicitly here. Several `Default` impls in the
//! program read `URPSM_*` environment variables, so nothing below calls
//! `PlannerConfig::default()`, `SimConfig::default()`,
//! `ShardConfig::default()` or `ServerConfig::default()`, and every
//! `ScenarioBuilder` names its fleet mix.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use road_network::cache::LruCachedOracle;
use road_network::congestion::{CongestionProfile, HOUR_CS};
use road_network::graph::RoadNetwork;
use road_network::hub_labels::HubLabels;
use road_network::oracle::{DistanceOracle, HubLabelOracle};
use urpsm_core::event::PlatformEvent;
use urpsm_core::planner::{Planner, PlannerConfig, PruneGreedyDp};
use urpsm_core::types::{RequestId, Time, Worker};
use urpsm_dispatch::admission::AdmissionConfig;
use urpsm_dispatch::service::{BoundaryPolicy, ShardConfig, ShardedService};
use urpsm_server::server::{recover, Backend, IngestReply, IngestServer, ServerConfig, WalConfig};
use urpsm_simulator::engine::SimConfig;
use urpsm_simulator::service::{MobilityService, ServiceCheckpoint};
use urpsm_simulator::{event_log_digest, SimEvent};
use urpsm_workloads::fleet::FleetMix;
use urpsm_workloads::scenario::{chengdu_like, metropolis, OracleKind, ScenarioBuilder};
use urpsm_workloads::MINUTE_CS;

use crate::trace::{self, Kind, TracedOracle, TracedPlanner};

/// Distance-cache capacity of the scenario oracle stack (the
/// `ScenarioBuilder` default, rebuilt per replay so every replay starts
/// with a cold cache, as a freshly started service does).
const LRU_DIS: usize = 1 << 20;
const LRU_PATH: usize = LRU_DIS / 64;

/// Micro-batch tick of the ingest workload: one minute.
const TICK_CS: Time = MINUTE_CS;
/// Geo-shards of the ingest workload.
const SHARDS: usize = 4;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    ChengduFreeflow,
    ChengduRush,
    MetropolisIngest,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::ChengduFreeflow,
        Workload::ChengduRush,
        Workload::MetropolisIngest,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::ChengduFreeflow => "chengdu-freeflow",
            Workload::ChengduRush => "chengdu-rush",
            Workload::MetropolisIngest => "metropolis-ingest",
        }
    }

    pub fn parse(s: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// Everything a replay needs, built once per setup.
pub struct Setup {
    pub workload: Workload,
    base: Arc<HubLabelOracle>,
    workers: Vec<Worker>,
    pub events: Vec<PlatformEvent>,
    grid_cell_m: f64,
    alpha: u64,
    congestion: Option<Arc<CongestionProfile>>,
    start_time: Time,
    pub cancels: usize,
    pub churn: usize,
    wal_dir: PathBuf,
}

fn chengdu(seed: u64, tiny: bool) -> ScenarioBuilder {
    // Table 5, Chengdu: 5 000 requests, the largest fleet (600), the
    // loosest deadline (25 min), the default penalty factor (10) and
    // grid (2 km), α = 1.
    let (requests, workers) = if tiny { (150, 30) } else { (5_000, 600) };
    chengdu_like(seed)
        .requests(requests)
        .workers(workers)
        .capacity(4)
        .deadline_offset(25 * MINUTE_CS)
        .penalty_factor(10)
        .grid_cell_m(2_000.0)
        .alpha(1)
        .oracle_kind(OracleKind::HubLabels)
        .fleet_mix(FleetMix::single())
}

fn metropolis_div100(seed: u64, tiny: bool) -> ScenarioBuilder {
    // `metropolis` ÷100 (the `bench ingest` scale): 10 000 requests and
    // 1 000 workers over the full city, 10 % cancellations, 50 workers
    // leaving and 50 joining. The smoke scale shrinks the city too.
    let b = metropolis(seed)
        .capacity(4)
        .deadline_offset(10 * MINUTE_CS)
        .penalty_factor(10)
        .grid_cell_m(2_000.0)
        .alpha(1)
        .oracle_kind(OracleKind::HubLabels)
        .fleet_mix(FleetMix::single())
        .cancel_rate(0.1);
    if tiny {
        b.ring_city(12, 24)
            .requests(300)
            .workers(40)
            .fleet_churn(3, 3)
    } else {
        b.requests(10_000).workers(1_000).fleet_churn(50, 50)
    }
}

impl Setup {
    /// Builds the scenario (network, hub labels, fleet, stream) and the
    /// replay's oracle base. `work_dir` holds the ingest workload's WAL.
    pub fn build(workload: Workload, seed: u64, tiny: bool, work_dir: &Path) -> Setup {
        let builder = match workload {
            Workload::ChengduFreeflow | Workload::ChengduRush => chengdu(seed, tiny),
            Workload::MetropolisIngest => metropolis_div100(seed, tiny),
        };
        let scenario = builder.build();
        let labels: HubLabels = scenario
            .oracle
            .backing_labels()
            .map(|l| (**l).clone())
            .expect("OracleKind::HubLabels backs the scenario oracle with labels");
        let base = Arc::new(HubLabelOracle::from_labels(
            scenario.network.clone(),
            labels,
        ));
        let mut events = scenario.event_stream();
        let mut congestion = None;
        if workload == Workload::ChengduRush {
            // The free-flow stream starts at midnight; shift it into
            // 07:30–09:30 so it straddles the core-jam morning peak.
            let shift = 7 * HOUR_CS + HOUR_CS / 2;
            for e in &mut events {
                if let PlatformEvent::RequestArrived(r) = e {
                    r.release += shift;
                    r.deadline += shift;
                }
            }
            congestion = Some(Arc::new(urpsm_bench::fixtures::core_jam_profile(
                &scenario.network,
            )));
        }
        let start_time = events.first().map_or(0, PlatformEvent::time);
        Setup {
            workload,
            base,
            workers: scenario.workers,
            cancels: scenario.cancellations.len(),
            churn: scenario.fleet_events.len(),
            events,
            grid_cell_m: scenario.grid_cell_m,
            alpha: scenario.alpha,
            congestion,
            start_time,
            wal_dir: work_dir.join(format!("wal-{}-{}", workload.name(), std::process::id())),
        }
    }

    /// The road network.
    pub fn network(&self) -> &RoadNetwork {
        self.base.network()
    }

    /// The hub-label index behind the oracle.
    pub fn labels(&self) -> &HubLabels {
        self.base.labels()
    }

    fn sim_config(&self) -> SimConfig {
        SimConfig {
            grid_cell_m: self.grid_cell_m,
            alpha: self.alpha,
            drain: true,
            threads: 1,
            congestion: self.congestion.clone(),
            td_oracle: self.workload == Workload::ChengduRush,
            classes: None,
        }
    }

    fn server_config(&self) -> ServerConfig {
        ServerConfig {
            tick: TICK_CS,
            admission: AdmissionConfig {
                queue_limit: usize::MAX,
                tick_budget: usize::MAX,
            },
            wal: Some(WalConfig {
                dir: self.wal_dir.clone(),
                snapshot_every: 1024,
            }),
        }
    }

    /// A fresh oracle stack: a cold distance cache over the shared
    /// labels, wrapped in the tracing decorator when `traced`.
    fn oracle(&self, traced: bool) -> Arc<dyn DistanceOracle> {
        let lru: Arc<dyn DistanceOracle> =
            Arc::new(LruCachedOracle::new(self.base.clone(), LRU_DIS, LRU_PATH));
        if traced {
            Arc::new(TracedOracle::new(lru))
        } else {
            lru
        }
    }

    fn planner(&self, shard: usize, traced: bool) -> Box<dyn Planner> {
        let p: Box<dyn Planner> = Box::new(PruneGreedyDp::from_config(PlannerConfig {
            alpha: self.alpha,
            strict_economics: false,
            threads: 1,
        }));
        if traced {
            Box::new(TracedPlanner::new(p, shard))
        } else {
            p
        }
    }

    fn service(&self, traced: bool) -> MobilityService<'static> {
        MobilityService::new(
            self.oracle(traced),
            self.workers.clone(),
            self.planner(0, traced),
            self.sim_config(),
            self.start_time,
        )
    }

    fn backend(&self, traced: bool) -> Backend<'static> {
        Backend::Sharded(ShardedService::new(
            self.oracle(traced),
            self.workers.clone(),
            |s| self.planner(s, traced),
            ShardConfig {
                shards: SHARDS,
                boundary: BoundaryPolicy::Borrow { probe: 3 },
                threads: 1,
                sim: self.sim_config(),
            },
            self.start_time,
        ))
    }

    /// Builds (and drops) the service a replay would start with, so
    /// that set-up time covers service construction too.
    pub fn open_service(&self) {
        match self.workload {
            Workload::MetropolisIngest => {
                let server =
                    IngestServer::new(self.backend(false), self.server_config()).expect("open WAL");
                drop(server);
            }
            _ => drop(self.service(false)),
        }
    }

    /// Removes the WAL directory.
    pub fn cleanup(&self) {
        let _ = std::fs::remove_dir_all(&self.wal_dir);
    }
}

/// Server-side facts of an ingest replay.
#[derive(Debug, Clone, Copy, Default)]
pub struct ServerFacts {
    pub ticks: u64,
    pub wal_bytes: u64,
    pub wal_records: u64,
    pub snapshots: u64,
    pub sheds: u64,
    pub peak_backlog: u64,
}

/// The outcome of one replay.
pub struct Replay {
    /// Events offered.
    pub offered: usize,
    /// Events answered: an arrival needs a decision reply
    /// (`Assigned`/`Rejected`); cancellations and fleet changes are
    /// answered when the call that carried them returns.
    pub answered: usize,
    /// Replay wall time (first event offered → last reply), seconds.
    pub wall_s: f64,
    /// Admission→reply wall time per event, nanoseconds.
    pub latencies_ns: Vec<u64>,
    pub unified_cost: u64,
    pub served_rate: f64,
    pub digest: u64,
    /// Correctness findings (empty = clean).
    pub errors: Vec<String>,
    /// The ingest backend's checkpoint after the last tick, before the
    /// drain (what WAL recovery must reproduce).
    pub checkpoint: Option<ServiceCheckpoint>,
    pub server: ServerFacts,
}

fn decided(replies: &[SimEvent], r: RequestId) -> bool {
    replies.iter().any(|e| match *e {
        SimEvent::Assigned { r: x, .. } | SimEvent::Rejected { r: x, .. } => x == r,
        _ => false,
    })
}

/// Replays the setup's stream once, closed loop: the next event is
/// offered only after the previous call returned. With `traced`, the
/// decorators are installed and spans recorded.
pub fn replay(setup: &Setup, traced: bool) -> Replay {
    match setup.workload {
        Workload::MetropolisIngest => replay_ingest(setup, traced),
        _ => replay_service(setup, traced),
    }
}

/// Rebuilds the ingest state from the WAL the last replay left behind
/// and checks that it lands on that replay's final checkpoint. `None`
/// when it does (or when the workload has no WAL).
pub fn check_recovery(setup: &Setup, last: &Replay) -> Option<String> {
    let expected = last.checkpoint?;
    let (recovered, report) = match recover(setup.backend(false), setup.server_config()) {
        Ok(r) => r,
        Err(e) => return Some(format!("recovery failed: {e}")),
    };
    let ok = recovered.checkpoint() == expected
        && report.snapshot_verified == Some(true)
        && !report.torn_tail
        && report.events_replayed == last.server.wal_records;
    (!ok).then(|| {
        format!(
            "recovery diverged: {:?} vs {expected:?}, report {report:?}",
            recovered.checkpoint()
        )
    })
}

fn replay_service(setup: &Setup, traced: bool) -> Replay {
    let n = setup.events.len();
    if traced {
        trace::start(n, 1);
    }
    let mut service = setup.service(traced);
    let mut latencies = Vec::with_capacity(n);
    let mut answered = 0usize;
    let t_start = Instant::now();
    for &event in &setup.events {
        if traced {
            trace::enter(Kind::Feed);
        }
        let t0 = Instant::now();
        if traced {
            trace::enter(Kind::Submit);
        }
        let replies = service.submit(event);
        if traced {
            trace::exit();
        }
        latencies.push(t0.elapsed().as_nanos() as u64);
        answered += match event {
            PlatformEvent::RequestArrived(r) => usize::from(decided(&replies, r.id)),
            _ => 1,
        };
        drop(replies);
        if traced {
            trace::exit();
        }
    }
    let wall_s = t_start.elapsed().as_secs_f64();

    if traced {
        trace::stop();
    }

    let outcome = service.drain();
    let mut errors = outcome.audit_errors.clone();
    let planned = outcome.state.total_assigned_distance();
    if outcome.metrics.driven_distance != planned {
        errors.push(format!(
            "driven {} != planned {}",
            outcome.metrics.driven_distance, planned
        ));
    }
    Replay {
        offered: n,
        answered,
        wall_s,
        latencies_ns: latencies,
        unified_cost: outcome.metrics.unified_cost.value(),
        served_rate: outcome.metrics.served_rate(),
        digest: event_log_digest(&outcome.events),
        errors,
        checkpoint: None,
        server: ServerFacts::default(),
    }
}

fn replay_ingest(setup: &Setup, traced: bool) -> Replay {
    let n = setup.events.len();
    if traced {
        trace::start(n, SHARDS);
    }
    let mut server =
        IngestServer::new(setup.backend(traced), setup.server_config()).expect("open WAL");
    let tx = server.handle();
    let mut latencies = Vec::with_capacity(n);
    let mut i = 0usize;
    let t_start = Instant::now();
    while i < n {
        // The tick that carries the next event: the same boundary
        // `IngestServer::step` picks for it.
        let until = (setup.events[i].time() / TICK_CS + 1) * TICK_CS;
        if traced {
            trace::enter(Kind::Feed);
        }
        let t0 = Instant::now();
        let first = i;
        while i < n && setup.events[i].time() <= until {
            tx.send(setup.events[i]).expect("server owns the receiver");
            i += 1;
        }
        if traced {
            trace::enter(Kind::Tick);
        }
        server.tick(until).expect("tick");
        if traced {
            trace::exit();
        }
        let dt = t0.elapsed().as_nanos() as u64;
        latencies.extend(std::iter::repeat_n(dt, i - first));
        if traced {
            trace::exit();
        }
    }
    let wall_s = t_start.elapsed().as_secs_f64();

    if traced {
        trace::stop();
    }
    drop(tx);

    let before_drain = server.checkpoint();
    let outcome = server.finish().expect("finish");
    let errors = outcome.audit_errors.clone();

    // Arrivals need a decision (an `Overloaded` answer counts as
    // failed); every other event is answered once its tick returned.
    let mut arrivals: Vec<RequestId> = setup
        .events
        .iter()
        .filter_map(|e| match e {
            PlatformEvent::RequestArrived(r) => Some(r.id),
            _ => None,
        })
        .collect();
    arrivals.sort_unstable();
    let mut answered_ids: Vec<RequestId> = outcome
        .replies
        .iter()
        .filter_map(|reply| match *reply {
            IngestReply::Service(SimEvent::Assigned { r, .. })
            | IngestReply::Service(SimEvent::Rejected { r, .. }) => Some(r),
            _ => None,
        })
        .collect();
    answered_ids.sort_unstable();
    answered_ids.dedup();
    let decided_arrivals = arrivals
        .iter()
        .filter(|r| answered_ids.binary_search(r).is_ok())
        .count();
    let answered = n - arrivals.len() + decided_arrivals;

    let wal = outcome.wal.expect("the ingest workload runs with a WAL");
    Replay {
        offered: n,
        answered,
        wall_s,
        latencies_ns: latencies,
        unified_cost: outcome.metrics.unified_cost.value(),
        served_rate: outcome.metrics.served_rate(),
        digest: event_log_digest(&outcome.events),
        errors,
        checkpoint: Some(before_drain),
        server: ServerFacts {
            ticks: outcome.ticks,
            wal_bytes: wal.bytes,
            wal_records: wal.records,
            snapshots: wal.snapshots,
            sheds: outcome.sheds as u64,
            peak_backlog: outcome.peak_backlog as u64,
        },
    }
}

/// Feeds the whole stream through `IngestServer::run` (every event
/// preloaded) and returns the event-log digest: the reference the live,
/// tick-by-tick feed must reproduce.
#[cfg(test)]
pub fn preloaded_ingest_digest(setup: &Setup) -> u64 {
    let server = IngestServer::new(setup.backend(false), setup.server_config()).expect("open WAL");
    let outcome = server.run(setup.events.iter().copied()).expect("run");
    event_log_digest(&outcome.events)
}
