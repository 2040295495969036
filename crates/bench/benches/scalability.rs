//! Criterion benchmark for Sec. 5.4: PE-count scaling of the FLEX timing estimate and the core
//! primitives it is built on (sorter, pipeline models).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use flex_core::config::FlexConfig;
use flex_core::fop_pipeline::FopPeModel;
use flex_fpga::sorter::SorterModel;
use flex_mgl::stats::RegionWork;
use flex_placement::cell::CellId;
use std::time::Duration;

fn region_work() -> RegionWork {
    RegionWork {
        target: CellId(0),
        insertion_points: 60,
        feasible_points: 48,
        breakpoints: 600,
        subcell_visits: 900,
        shift_passes: 96,
        sorted_cells: 800,
        bound_queries: 1040,
        local_cells: 30,
        segments: 9,
        ..RegionWork::default()
    }
}

fn bench_models(c: &mut Criterion) {
    let work = region_work();
    let mut group = c.benchmark_group("scalability");
    group
        .sample_size(50)
        .measurement_time(Duration::from_secs(2))
        .warm_up_time(Duration::from_millis(500));
    for pes in [1u64, 2, 4] {
        let model = FopPeModel::new(FlexConfig::flex().with_pes(pes));
        group.bench_with_input(BenchmarkId::new("cluster_cycles", pes), &pes, |b, _| {
            b.iter(|| model.cluster_region_cycles(&work))
        });
    }
    let sorter = SorterModel::default();
    group.bench_function("sorter_model_1k", |b| b.iter(|| sorter.sort_cycles(1000)));
    group.finish();
}

criterion_group!(benches, bench_models);
criterion_main!(benches);
