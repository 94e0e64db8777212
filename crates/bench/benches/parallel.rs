//! Thread-scaling of the parallel planning engine (DESIGN.md §5): one
//! iteration = one full simulation of a scaled-up Chengdu-like stream
//! under `pruneGreedyDP`, swept over the planning fan-out width.
//!
//! The city is deliberately larger than the `planner` bench's (the
//! *unscaled* Table 5 stream — divisor 1 vs the planner bench's ÷25 —
//! with the largest fleet and generous deadlines) so each request
//! carries a wide candidate shortlist — that per-request width is what
//! the engine parallelizes. Budget accordingly: one iteration is a
//! ~0.7 s simulation and the determinism gate below runs five of them
//! before measuring. The gate asserts the outcomes are byte-identical
//! across every thread count (the determinism contract this whole
//! design rests on).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use urpsm_bench::fixtures::CityFixture;
use urpsm_bench::harness::{run_cell, Algo, Cell};
use urpsm_workloads::scenario::City;

/// The fan-out widths of the BENCH_NOTES.md scaling table.
const THREADS: [usize; 4] = [1, 2, 4, 8];

fn scaled_cell(fx: &CityFixture) -> Cell {
    let s = &fx.sweep;
    // Largest fleet, 25-minute deadlines: wide per-request shortlists
    // (hundreds of candidates), so one request carries enough Phase 1
    // LB math and Phase 2 probes to amortize the per-request spawn.
    fx.cell(
        *s.workers.values.last().expect("non-empty axis"),
        s.capacity.default_value(),
        25 * urpsm_workloads::MINUTE_CS,
        s.penalty_factor.default_value(),
        s.grid_m.default_value(),
    )
}

fn bench_thread_scaling(c: &mut Criterion) {
    urpsm_bench::open_obs_gate();
    let fx = CityFixture::build(City::ChengduLike, 1, 1);
    let mut cell = scaled_cell(&fx);

    // Determinism gate: every width must reproduce the sequential run
    // exactly (unified cost and served rate are derived from the full
    // event log, so equality here means the assignments match).
    cell.threads = 1;
    let baseline = run_cell(&cell, Algo::PruneGreedyDp);
    assert!(baseline.audit_errors.is_empty());
    for threads in THREADS {
        cell.threads = threads;
        let res = run_cell(&cell, Algo::PruneGreedyDp);
        assert_eq!(
            (res.unified_cost, res.served_rate),
            (baseline.unified_cost, baseline.served_rate),
            "threads = {threads} diverged from sequential"
        );
    }

    let mut group = c.benchmark_group("planner_thread_scaling");
    group.sample_size(10);
    for threads in THREADS {
        cell.threads = threads;
        let cell_ref = &cell;
        group.bench_with_input(BenchmarkId::from_parameter(threads), &threads, |b, _| {
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

criterion_group!(benches, bench_thread_scaling, attach_metrics);
criterion_main!(benches);
