//! Criterion benchmark: the parallel MGL engine vs. the serial legalizer.
//!
//! Thread counts come from `FLEX_BENCH_THREADS` (default 8): the sweep runs 1, 2, 4, … up to
//! that bound. The case size scales with `FLEX_BENCH_SCALE` like the other benches. Two
//! orderings are measured — the static size-descending order and the FLEX default dynamic
//! sliding-window order (which runs the peeked-prefix speculative path). The engine produces
//! the exact serial placement in every configuration, so this measures pure wall-clock
//! scheduling differences (expect ~1× on a single hardware core).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use flex_mgl::api::Legalizer;
use flex_mgl::parallel::ParallelMglLegalizer;
use flex_mgl::{MglConfig, MglLegalizer, OrderingStrategy};
use flex_placement::benchmark::{generate, BenchmarkSpec};
use std::time::Duration;

fn spec() -> BenchmarkSpec {
    let cells = (100_000.0 * flex_bench::scale_from_env()) as usize;
    BenchmarkSpec {
        num_cells: cells.max(500),
        ..BenchmarkSpec::medium("parallel-scaling", 42)
    }
}

fn cfg(ordering: OrderingStrategy) -> MglConfig {
    MglConfig {
        ordering,
        ..MglConfig::default()
    }
}

fn ordering_label(ordering: OrderingStrategy) -> &'static str {
    match ordering {
        OrderingStrategy::SizeDescending => "size-desc",
        OrderingStrategy::SlidingWindowDensity => "sliding-window",
        OrderingStrategy::Natural => "natural",
    }
}

fn bench_parallel_scaling(c: &mut Criterion) {
    let spec = spec();
    let max_threads = flex_bench::threads_from_env();

    for ordering in [
        OrderingStrategy::SizeDescending,
        OrderingStrategy::SlidingWindowDensity,
    ] {
        let label = ordering_label(ordering);
        let mut group = c.benchmark_group(format!("parallel_mgl/{label}"));
        group
            .sample_size(10)
            .measurement_time(Duration::from_secs(5))
            .warm_up_time(Duration::from_secs(1));

        // both engines measured through the unified trait, as a session would run them
        let serial: Box<dyn Legalizer> = Box::new(MglLegalizer::new(cfg(ordering)));
        group.bench_function("serial", |b| {
            b.iter(|| {
                let mut d = generate(&spec);
                serial.legalize(&mut d)
            })
        });

        let mut threads = 1usize;
        while threads <= max_threads {
            let parallel: Box<dyn Legalizer> =
                Box::new(ParallelMglLegalizer::new(threads, cfg(ordering)));
            group.bench_with_input(BenchmarkId::from_parameter(threads), &threads, |b, _| {
                b.iter(|| {
                    let mut d = generate(&spec);
                    parallel.legalize(&mut d)
                })
            });
            threads *= 2;
        }
        group.finish();
    }
}

criterion_group!(benches, bench_parallel_scaling);
criterion_main!(benches);
