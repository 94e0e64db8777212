//! Cell execution: run one (city, parameter, algorithm) cell and
//! collect the three paper panels plus query/memory statistics.

use std::sync::Arc;
use std::time::Duration;

use road_network::oracle::{CountingOracle, DistanceOracle, QueryStats};
use urpsm_baselines::batch::BatchPlanner;
use urpsm_baselines::kinetic::{KineticConfig, KineticPlanner};
use urpsm_baselines::tshare::{TShareConfig, TSharePlanner};
use urpsm_core::event::PlatformEvent;
use urpsm_core::planner::{GreedyDp, Planner, PlannerConfig, PruneGreedyDp};
use urpsm_core::types::{Request, Worker};
use urpsm_dispatch::service::{ShardConfig, ShardedService};
use urpsm_simulator::engine::{SimConfig, SimOutcome, Simulation};

/// The five algorithms of §6, in the paper's legend order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Algo {
    /// T-Share (ICDE'13).
    TShare,
    /// Kinetic tree (VLDB'14).
    Kinetic,
    /// pruneGreedyDP (the paper's solution, Algo. 5).
    PruneGreedyDp,
    /// Batch (PNAS'17).
    Batch,
    /// GreedyDP (no Lemma 8 pruning).
    GreedyDp,
}

impl Algo {
    /// All five, legend order.
    pub const ALL: [Algo; 5] = [
        Algo::TShare,
        Algo::Kinetic,
        Algo::PruneGreedyDp,
        Algo::Batch,
        Algo::GreedyDp,
    ];

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            Algo::TShare => "tshare",
            Algo::Kinetic => "kinetic",
            Algo::PruneGreedyDp => "pruneGreedyDP",
            Algo::Batch => "batch",
            Algo::GreedyDp => "GreedyDP",
        }
    }

    /// Instantiates the planner with the cell's parameters.
    pub fn planner(self, alpha: u64, grid_cell_m: f64) -> Box<dyn Planner> {
        match self {
            Algo::TShare => Box::new(TSharePlanner::from_config(TShareConfig {
                grid_cell_m,
                avg_speed_mps: 8.0,
                search: urpsm_baselines::tshare::SearchMode::SingleSide,
            })),
            Algo::Kinetic => Box::new(KineticPlanner::from_config(KineticConfig {
                alpha,
                node_budget: 50_000,
            })),
            Algo::Batch => Box::new(BatchPlanner::new()),
            Algo::GreedyDp => Box::new(GreedyDp::from_config(PlannerConfig {
                alpha,
                ..PlannerConfig::default()
            })),
            Algo::PruneGreedyDp => Box::new(PruneGreedyDp::from_config(PlannerConfig {
                alpha,
                ..PlannerConfig::default()
            })),
        }
    }
}

/// One cell's inputs: a fleet, a stream, the platform parameters.
#[derive(Clone)]
pub struct Cell {
    /// Shared (possibly cached) oracle.
    pub oracle: Arc<dyn DistanceOracle>,
    /// The fleet for this cell.
    pub workers: Vec<Worker>,
    /// The stream for this cell.
    pub requests: Vec<Request>,
    /// Platform grid size `g` (meters).
    pub grid_cell_m: f64,
    /// Objective weight `α`.
    pub alpha: u64,
    /// Geo-sharding: `0` (the default) runs the plain single-service
    /// path; `K ≥ 1` runs the cell through a `ShardedService` with `K`
    /// shards under the default `Borrow` boundary policy.
    pub shards: usize,
    /// Congestion profile for the cell (`None` = free flow, which the
    /// cell constructors leave; bench cells opt in explicitly).
    pub congestion: Option<Arc<road_network::congestion::CongestionProfile>>,
    /// Route committed legs through the time-dependent oracle
    /// (`SimConfig::td_oracle` semantics; the cell constructors leave
    /// it `false`).
    pub td_oracle: bool,
    /// Vehicle-class table of the cell's fleet (`SimConfig::classes`
    /// semantics). The cell constructors leave this `None` — the
    /// `experiments fleet` table opts in.
    pub classes: Option<Arc<urpsm_core::types::ClassTable>>,
}

/// One cell's measured outputs.
pub struct CellResult {
    /// Unified cost (Eq. 1).
    pub unified_cost: u64,
    /// `|R⁺| / |R|`.
    pub served_rate: f64,
    /// Mean wall-clock per request.
    pub response_time: Duration,
    /// Shortest-distance / path query counters over every query the
    /// cell's oracle answered: the planner's and the simulator's
    /// worker-motion queries alike.
    pub queries: QueryStats,
    /// Index memory (tshare: sorted-cell grid; others: plain grid).
    pub index_mem_bytes: usize,
    /// Served requests per vehicle class (one entry for a homogeneous
    /// fleet; indexed by `ClassId` otherwise).
    pub per_class_served: Vec<usize>,
    /// Audit verdict (must be empty).
    pub audit_errors: Vec<String>,
}

/// Runs one `(cell, algorithm)` pair — through a `ShardedService` when
/// the cell asks for geo-sharding, through the plain `Simulation`
/// otherwise.
pub fn run_cell(cell: &Cell, algo: Algo) -> CellResult {
    let counting: Arc<CountingOracle<Arc<dyn DistanceOracle>>> =
        Arc::new(CountingOracle::new(cell.oracle.clone()));
    let config = SimConfig {
        grid_cell_m: cell.grid_cell_m,
        alpha: cell.alpha,
        drain: true,
        threads: 0,
        congestion: cell.congestion.clone(),
        td_oracle: cell.td_oracle,
        classes: cell.classes.clone(),
    };
    if cell.shards >= 1 {
        return run_cell_sharded(cell, algo, counting, config);
    }
    // Streams out of the workload generators are sorted by construction.
    let sim = Simulation::new_sorted_unchecked(
        counting.clone(),
        cell.workers.clone(),
        cell.requests.clone(),
        config,
    );
    let mut planner = algo.planner(cell.alpha, cell.grid_cell_m);
    let out: SimOutcome = sim.run(&mut planner);

    // Index memory: tshare's sorted grid lives in the platform state;
    // everyone else pays only the plain bucket grid.
    let index_mem_bytes = out
        .state
        .sorted_grid()
        .map(|sg| sg.mem_bytes())
        .unwrap_or_else(|| out.state.grid_mem_bytes());

    CellResult {
        unified_cost: out.metrics.unified_cost.value(),
        served_rate: out.metrics.served_rate(),
        response_time: out.metrics.response_time(),
        queries: counting.stats(),
        index_mem_bytes,
        per_class_served: out.metrics.per_class.iter().map(|c| c.served).collect(),
        audit_errors: out.audit_errors,
    }
}

/// The geo-sharded cell path: K independent shards, each planning with
/// its own instance of `algo`'s planner, default `Borrow` seams.
fn run_cell_sharded(
    cell: &Cell,
    algo: Algo,
    counting: Arc<CountingOracle<Arc<dyn DistanceOracle>>>,
    sim: SimConfig,
) -> CellResult {
    let start_time = cell.requests.first().map_or(0, |r| r.release);
    let mut service = ShardedService::new(
        counting.clone(),
        cell.workers.clone(),
        |_| algo.planner(cell.alpha, cell.grid_cell_m),
        ShardConfig {
            shards: cell.shards,
            sim,
            ..ShardConfig::default()
        },
        start_time,
    );
    for r in &cell.requests {
        service.submit(PlatformEvent::RequestArrived(*r));
    }
    let out = service.drain();
    let index_mem_bytes = out
        .shards
        .iter()
        .map(|s| {
            s.outcome
                .state
                .sorted_grid()
                .map(|sg| sg.mem_bytes())
                .unwrap_or_else(|| s.outcome.state.grid_mem_bytes())
        })
        .sum();
    CellResult {
        unified_cost: out.metrics.unified_cost.value(),
        served_rate: out.metrics.served_rate(),
        response_time: out.metrics.response_time(),
        queries: counting.stats(),
        index_mem_bytes,
        per_class_served: out.metrics.per_class.iter().map(|c| c.served).collect(),
        audit_errors: out.audit_errors,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures::CityFixture;
    use urpsm_workloads::scenario::City;

    #[test]
    fn run_cell_produces_clean_results_for_every_algo() {
        let fx = CityFixture::build(City::ChengduLike, 40, 1);
        let cell = fx.cell(8, 4, 60_000, 10, 2_000.0);
        for algo in Algo::ALL {
            let res = run_cell(&cell, algo);
            assert!(
                res.audit_errors.is_empty(),
                "{}: {:?}",
                algo.name(),
                res.audit_errors
            );
            assert!(res.served_rate >= 0.0 && res.served_rate <= 1.0);
            assert!(res.queries.dis > 0, "{} issued no queries", algo.name());
        }
    }

    #[test]
    fn sharded_cells_match_direct_at_one_shard_and_stay_clean_beyond() {
        let fx = CityFixture::build(City::ChengduLike, 40, 1);
        let mut cell = fx.cell(8, 4, 60_000, 10, 2_000.0);
        let direct = run_cell(&cell, Algo::PruneGreedyDp);
        cell.shards = 1;
        let one = run_cell(&cell, Algo::PruneGreedyDp);
        assert_eq!(one.unified_cost, direct.unified_cost);
        assert_eq!(one.served_rate, direct.served_rate);
        cell.shards = 4;
        let four = run_cell(&cell, Algo::PruneGreedyDp);
        assert!(four.audit_errors.is_empty(), "{:?}", four.audit_errors);
    }
}
