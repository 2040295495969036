//! Criterion benchmark for Fig. 2(g)/6(g): the FOP cost under original shifting vs. SACS. The
//! breakpoint chain is the same under both; the original and reorganized operator
//! organizations of Fig. 5 differ only on the FPGA, where `flex_fpga::pipeline` models them.

use criterion::{criterion_group, criterion_main, Criterion};
use flex_mgl::config::{MglConfig, ShiftAlgorithm};
use flex_mgl::fop::{find_optimal_position_with, FopScratch, TargetSpec};
use flex_mgl::region::{target_window, LegalizedIndex, LocalRegion};
use flex_mgl::stats::FopOpStats;
use flex_placement::benchmark::{generate_premoved, BenchmarkSpec};
use flex_placement::segment::SegmentMap;
use std::time::Duration;

fn bench_fop(c: &mut Criterion) {
    let design = generate_premoved(&BenchmarkSpec::tiny("fop", 13));
    let segmap = SegmentMap::build(&design);
    let target = design.movable_ids()[0];
    let spec = TargetSpec::of(design.cell(target));
    let window = target_window(&design, target, 32, 4);
    let index = LegalizedIndex::build(&design);
    let region = LocalRegion::extract_indexed(&design, &segmap, target, window, &index);

    let mut group = c.benchmark_group("fop");
    group
        .sample_size(30)
        .measurement_time(Duration::from_secs(3))
        .warm_up_time(Duration::from_secs(1));
    for (label, shift) in [
        ("original_shift", ShiftAlgorithm::Original),
        ("sacs_shift", ShiftAlgorithm::Sacs),
    ] {
        let cfg = MglConfig {
            shift,
            ..MglConfig::default()
        };
        let mut scratch = FopScratch::new();
        group.bench_function(label, |b| {
            b.iter(|| {
                let mut stats = FopOpStats::default();
                find_optimal_position_with(&region, &spec, &cfg, &mut stats, &mut scratch)
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_fop);
criterion_main!(benches);
