//! End-to-end per-request latency of the five planners (the response
//! time panels of Figs. 3–7) on a fixed small city; one criterion
//! iteration = one full simulation of the stream.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use urpsm_bench::fixtures::CityFixture;
use urpsm_bench::harness::{run_cell, Algo};
use urpsm_workloads::scenario::City;

fn bench_planners(c: &mut Criterion) {
    urpsm_bench::open_obs_gate();
    // Chengdu-like, heavily scaled so one simulation is milliseconds.
    let fx = CityFixture::build(City::ChengduLike, 25, 1);
    let cell = fx.default_cell();

    let mut group = c.benchmark_group("planner_full_stream");
    group.sample_size(10);
    for algo in Algo::ALL {
        group.bench_with_input(
            BenchmarkId::from_parameter(algo.name()),
            &algo,
            |b, &algo| b.iter(|| run_cell(&cell, algo)),
        );
    }
    group.finish();
}

fn attach_metrics(c: &mut Criterion) {
    // Embed the metrics snapshot in the --json artifact (all zeros
    // unless built with --features obs, which opens the gate above).
    c.raw_section("metrics_snapshot", urpsm_bench::obs_snapshot_json());
}

criterion_group!(benches, bench_planners, attach_metrics);
criterion_main!(benches);
