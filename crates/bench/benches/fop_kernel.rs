//! Criterion micro-benchmark of the FOP kernel: the arena-allocated scratch path
//! (`find_optimal_position_with`) against the allocating `fop::reference` baseline, on the
//! synthetic crowded / sparse / tall-cell regions of `flex_bench::fop_cases`.
//!
//! The `crowded` case is the acceptance-gated one: the scratch kernel must deliver ≥ 2.5×
//! the reference throughput there (see `BENCH_fop.json`, regenerated with
//! `cargo run --release -p flex-bench --bin report_figures -- --fop-json`).

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use flex_bench::fop_cases;
use flex_mgl::config::MglConfig;
use flex_mgl::fop::{self, FopScratch};
use flex_mgl::stats::FopOpStats;
use std::time::Duration;

fn bench_fop_kernel(c: &mut Criterion) {
    let cfg = MglConfig::default();
    let mut group = c.benchmark_group("fop_kernel");
    group
        .sample_size(20)
        .measurement_time(Duration::from_secs(4))
        .warm_up_time(Duration::from_secs(1));
    for case in fop_cases::all() {
        group.bench_with_input(
            BenchmarkId::new("reference", case.name),
            &case,
            |b, case| {
                b.iter(|| {
                    let mut stats = FopOpStats::default();
                    black_box(fop::reference::find_optimal_position(
                        &case.region,
                        &case.target,
                        &mut stats,
                    ))
                })
            },
        );
        let mut scratch = FopScratch::new();
        group.bench_with_input(BenchmarkId::new("scratch", case.name), &case, |b, case| {
            b.iter(|| {
                let mut stats = FopOpStats::default();
                black_box(fop::find_optimal_position_with(
                    &case.region,
                    &case.target,
                    &cfg,
                    &mut stats,
                    &mut scratch,
                ))
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_fop_kernel);
criterion_main!(benches);
