//! Shard-scaling of the geo-sharded dispatch plane (DESIGN.md §6): one
//! iteration = one full simulation of the *unscaled* Chengdu-like
//! stream under `pruneGreedyDP`, swept over the shard count K.
//!
//! Sharding legitimately trades quality for locality at K > 1, so the
//! determinism gate here is split:
//! K = 1 must reproduce the direct single-service run *exactly*, and
//! every K must be audit-clean with its quality delta printed, not
//! hidden. The wall-clock column is the scaling story: each shard
//! plans against its own slice of the fleet, so the per-request
//! candidate shortlists (the planning hot path) shrink roughly by K
//! even on one core — shard-parallelism on real cores comes on top
//! (`ShardConfig::threads`).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use urpsm_bench::fixtures::CityFixture;
use urpsm_bench::harness::{run_cell, Algo, Cell};
use urpsm_workloads::scenario::City;

/// The shard counts of the BENCH_NOTES.md scaling table.
const SHARDS: [usize; 4] = [1, 2, 4, 8];

fn scaled_cell(fx: &CityFixture) -> Cell {
    let s = &fx.sweep;
    // Largest fleet, 25-minute deadlines: wide per-request shortlists
    // on the full-scale stream, which is what sharding shrinks.
    fx.cell(
        *s.workers.values.last().expect("non-empty axis"),
        s.capacity.default_value(),
        25 * urpsm_workloads::MINUTE_CS,
        s.penalty_factor.default_value(),
        s.grid_m.default_value(),
    )
}

fn bench_shard_scaling(c: &mut Criterion) {
    urpsm_bench::open_obs_gate();
    let fx = CityFixture::build(City::ChengduLike, 1, 1);
    let mut cell = scaled_cell(&fx);

    // Gate 1: one shard reproduces the direct path exactly (the merged
    // log determines both numbers, so equality means identical runs).
    let direct = run_cell(&cell, Algo::PruneGreedyDp);
    assert!(direct.audit_errors.is_empty());
    cell.shards = 1;
    let one = run_cell(&cell, Algo::PruneGreedyDp);
    assert_eq!(
        (one.unified_cost, one.served_rate),
        (direct.unified_cost, direct.served_rate),
        "K = 1 diverged from the direct single-service run"
    );

    // Gate 2: every K is audit-clean; quality deltas are printed.
    for shards in SHARDS {
        cell.shards = shards;
        let res = run_cell(&cell, Algo::PruneGreedyDp);
        assert!(
            res.audit_errors.is_empty(),
            "K = {shards}: {:?}",
            res.audit_errors
        );
        eprintln!(
            "K={shards}: served {:.1}% (direct {:.1}%), UC {} (direct {})",
            res.served_rate * 100.0,
            direct.served_rate * 100.0,
            res.unified_cost,
            direct.unified_cost
        );
    }

    let mut group = c.benchmark_group("shard_scaling");
    group.sample_size(10);
    for shards in SHARDS {
        cell.shards = shards;
        let cell_ref = &cell;
        group.bench_with_input(BenchmarkId::from_parameter(shards), &shards, |b, _| {
            b.iter(|| run_cell(cell_ref, Algo::PruneGreedyDp))
        });
    }
    group.finish();
}

fn attach_metrics(c: &mut Criterion) {
    // Embed the metrics snapshot in the --json artifact (all zeros
    // unless built with --features obs, which opens the gate above).
    c.raw_section("metrics_snapshot", urpsm_bench::obs_snapshot_json());
}

criterion_group!(benches, bench_shard_scaling, attach_metrics);
criterion_main!(benches);
