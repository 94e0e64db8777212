//! The decision phase economics (§5.1): the Euclidean lower bound
//! costs `O(n)` coordinate math and *zero* `dis()` queries, vs the
//! exact linear DP's `2n + 3` queries. This is why Algo. 4 can afford
//! to score every candidate worker.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use road_network::matrix::MatrixOracle;
use road_network::oracle::DistanceOracle;
use road_network::{Cost, VertexId};
use urpsm_core::insertion::{linear_dp_insertion_with, InsertionScratch};
use urpsm_core::lower_bound::insertion_lower_bound;
use urpsm_core::route::Route;
use urpsm_core::types::{Request, RequestId};

fn line_oracle(n: usize) -> MatrixOracle {
    let rows: Vec<Vec<Cost>> = (0..n)
        .map(|u| (0..n).map(|v| (u.abs_diff(v) as Cost) * 100).collect())
        .collect();
    let points = (0..n)
        .map(|k| road_network::geo::Point::new(k as f64, 0.0))
        .collect();
    MatrixOracle::from_matrix(&rows, points, 1.0)
}

fn request(id: u32, o: u32, d: u32) -> Request {
    Request {
        class: Default::default(),
        id: RequestId(id),
        origin: VertexId(o),
        destination: VertexId(d),
        release: 0,
        deadline: u64::MAX / 8,
        penalty: 1,
        capacity: 1,
    }
}

fn bench_decision(c: &mut Criterion) {
    urpsm_bench::open_obs_gate();
    let oracle = line_oracle(512);
    let probe = request(9_999, 151, 282);
    let direct = oracle.dis(probe.origin, probe.destination);

    let mut group = c.benchmark_group("decision_phase");
    for &n in &[8usize, 32, 128] {
        // Build a route with n stops.
        let mut route = Route::new(VertexId(0), 0);
        let mut scratch = InsertionScratch::default();
        for i in 0..n / 2 {
            let r = request(
                i as u32,
                ((i * 29) % 500) as u32,
                ((i * 29 + 40) % 500) as u32,
            );
            let plan = linear_dp_insertion_with(&mut scratch, &route, u32::MAX, &r, &oracle)
                .expect("insertable");
            route.apply_insertion(&plan, &r);
        }
        group.bench_with_input(
            BenchmarkId::new("euclidean_lower_bound", n),
            &route,
            |b, route| b.iter(|| insertion_lower_bound(route, u32::MAX, &probe, direct, &oracle)),
        );
        group.bench_with_input(
            BenchmarkId::new("exact_linear_dp", n),
            &route,
            |b, route| {
                b.iter(|| linear_dp_insertion_with(&mut scratch, route, u32::MAX, &probe, &oracle))
            },
        );
    }
    group.finish();
}

fn attach_metrics(c: &mut Criterion) {
    // Embed the metrics snapshot in the --json artifact (all zeros
    // unless built with --features obs, which opens the gate above).
    c.raw_section("metrics_snapshot", urpsm_bench::obs_snapshot_json());
}

criterion_group!(benches, bench_decision, attach_metrics);
criterion_main!(benches);
