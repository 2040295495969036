//! Property-based tests for the parallel region-sharded MGL engine: legality of every
//! legalizer on random benchmarks, and determinism of serial vs. parallel legalization
//! across the full {ordering strategy} × {thread count} matrix — including the FLEX default
//! dynamic (sliding-window density) ordering, where each speculation batch runs against a
//! shadow copy of the cell state while the previous batch commits.

use flex::baselines::cpu::CpuLegalizer;
use flex::mgl::parallel::ParallelMglLegalizer;
use flex::mgl::{MglConfig, MglLegalizer, OrderingStrategy};
use flex::placement::benchmark::{generate, BenchmarkSpec};
use flex::placement::legality::check_legality_with;
use flex::placement::Design;
use proptest::prelude::*;

fn static_cfg() -> MglConfig {
    MglConfig {
        ordering: OrderingStrategy::SizeDescending,
        ..MglConfig::default()
    }
}

fn positions(d: &Design) -> Vec<(i64, i64)> {
    d.cells
        .iter()
        .filter(|c| !c.fixed)
        .map(|c| (c.x, c.y))
        .collect()
}

proptest! {
    // each case runs several complete legalizations: keep the count low but meaningful
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Every legalizer produces a placement that passes the full legality check on random
    /// benchmark specs (densities spanning easy to crowded).
    #[test]
    fn every_legalizer_output_is_legal(seed in 0u64..10_000, density in 0.3f64..0.75, threads in 1usize..6) {
        let spec = BenchmarkSpec {
            num_cells: 120,
            ..BenchmarkSpec::tiny("prop-par-legal", seed)
        }
        .with_density(density);

        let mut d_serial = generate(&spec);
        let serial = MglLegalizer::new(static_cfg()).legalize(&mut d_serial);
        prop_assert!(serial.legal, "serial illegal at seed {seed}");
        prop_assert!(check_legality_with(&d_serial, true).is_legal());

        let mut d_par = generate(&spec);
        let par = ParallelMglLegalizer::new(threads, static_cfg()).legalize(&mut d_par);
        prop_assert!(par.result.legal, "parallel illegal at seed {seed}");
        prop_assert!(check_legality_with(&d_par, true).is_legal());

        let mut d_cpu = generate(&spec);
        let cpu = CpuLegalizer::new(threads).legalize(&mut d_cpu);
        prop_assert!(cpu.legal, "cpu baseline illegal at seed {seed}");
        prop_assert!(check_legality_with(&d_cpu, true).is_legal());
    }

    /// Determinism under sharding: serial and parallel MGL produce identical quality numbers
    /// (the engine is placement-identical to the serial legalizer by construction), and the
    /// thread count never changes the result.
    #[test]
    fn serial_and_parallel_mgl_are_identical(seed in 0u64..10_000, density in 0.3f64..0.8) {
        let spec = BenchmarkSpec {
            num_cells: 120,
            ..BenchmarkSpec::tiny("prop-par-det", seed)
        }
        .with_density(density);

        let mut d_serial = generate(&spec);
        let serial = MglLegalizer::new(static_cfg()).legalize(&mut d_serial);

        for threads in [1usize, 4] {
            let mut d_par = generate(&spec);
            let par = ParallelMglLegalizer::new(threads, static_cfg()).legalize(&mut d_par);
            prop_assert_eq!(par.result.legal, serial.legal);
            prop_assert!(
                (par.result.average_displacement - serial.average_displacement).abs() < 1e-9,
                "S_am diverged at seed {seed} threads {threads}: {} vs {}",
                par.result.average_displacement,
                serial.average_displacement
            );
            prop_assert!(
                (par.result.max_displacement - serial.max_displacement).abs() < 1e-9
            );
            prop_assert_eq!(par.result.placed_in_region, serial.placed_in_region);
            prop_assert_eq!(par.result.fallback_placed, serial.fallback_placed);
            prop_assert_eq!(
                positions(&d_serial),
                positions(&d_par),
                "placements diverged at seed {seed}"
            );
        }
    }

    /// The full engine matrix: {natural, size-descending, sliding-window-density}
    /// orderings × thread counts, asserting **cell-for-cell** equality with the serial
    /// legalizer run under the same configuration. Every batch speculates against a shadow
    /// while the previous batch commits, so these rows prove the per-slot write-rect
    /// staleness guard and the shadows' catch-up preserve serial bit-exactness.
    #[test]
    fn ordering_thread_matrix_is_serial_identical(
        seed in 0u64..10_000,
        density in 0.35f64..0.75,
        threads in 1usize..6,
    ) {
        let spec = BenchmarkSpec {
            num_cells: 110,
            ..BenchmarkSpec::tiny("prop-par-matrix", seed)
        }
        .with_density(density);

        for ordering in [
            OrderingStrategy::Natural,
            OrderingStrategy::SizeDescending,
            OrderingStrategy::SlidingWindowDensity,
        ] {
            let cfg = MglConfig {
                ordering,
                ..MglConfig::default()
            };
            let mut d_serial = generate(&spec);
            let serial = MglLegalizer::new(cfg.clone()).legalize(&mut d_serial);
            let serial_pos = positions(&d_serial);

            let mut d_par = generate(&spec);
            let par = ParallelMglLegalizer::new(threads, cfg.clone()).legalize(&mut d_par);
            prop_assert_eq!(par.result.legal, serial.legal);
            prop_assert_eq!(
                &serial_pos,
                &positions(&d_par),
                "placements diverged: seed {} ordering {:?} threads {}",
                seed,
                ordering,
                threads
            );
            prop_assert_eq!(par.result.placed_in_region, serial.placed_in_region);
            prop_assert_eq!(par.result.fallback_placed, serial.fallback_placed);
            prop_assert_eq!(&par.result.failed, &serial.failed);
            prop_assert_eq!(
                par.result.average_displacement.to_bits(),
                serial.average_displacement.to_bits(),
                "S_am must be byte-identical (seed {seed} ordering {ordering:?})"
            );
        }
    }
}
