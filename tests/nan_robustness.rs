//! NaN / extreme-value robustness of every engine behind the unified `Legalizer` trait.
//!
//! A degenerate global placement can hand the legalizers non-finite or astronomically
//! large desired positions (diverged analytical solves, uninitialized nets). None of the
//! six engines may panic on such input: the float comparators use `f64::total_cmp`, the
//! slope-balance debug assertions use a relative tolerance that ignores non-finite sums,
//! and the pre-move step saturates positions onto the die. These tests drive every
//! `EngineKind` — including the pipelined parallel host engine on two threads — over
//! designs whose movable cells have NaN and ±1e300 / ±1e9 desired coordinates.

use flex::core::config::FlexConfig;
use flex::core::session::EngineKind;
use flex::placement::benchmark::{generate, BenchmarkSpec};
use proptest::prelude::*;

/// Palette of hostile desired coordinates, indexed by a proptest-chosen offset.
const HOSTILE: [f64; 6] = [f64::NAN, 1e300, -1e300, 1e9, -1e9, -0.0];

proptest! {
    // every case runs six complete legalizations; keep the count small
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// All six engines complete without panicking when a subset of movable cells carries
    /// NaN or extreme desired positions, and every report still accounts for each
    /// movable cell exactly once.
    #[test]
    fn engines_survive_hostile_desired_positions(
        seed in 0u64..10_000,
        stride in 2usize..5,
        palette_offset in 0usize..HOSTILE.len(),
    ) {
        let spec = BenchmarkSpec {
            num_cells: 60,
            ..BenchmarkSpec::tiny("nan-robust", seed)
        };
        let base = {
            let mut d = generate(&spec);
            let mut k = palette_offset;
            for cell in d.cells.iter_mut().filter(|c| !c.fixed) {
                if (cell.id.0 as usize).is_multiple_of(stride) {
                    cell.gx = HOSTILE[k % HOSTILE.len()];
                    cell.gy = HOSTILE[(k + 1) % HOSTILE.len()];
                    k += 1;
                }
            }
            d
        };

        // two host threads exercise the speculation shadows under the same hostile input as
        // the serial engines
        let cfg = FlexConfig::flex().with_host_threads(2);

        for kind in EngineKind::all() {
            let mut d = base.clone();
            let report = kind.build(&cfg).legalize(&mut d);
            prop_assert_eq!(
                report.cells,
                base.num_movable(),
                "{} lost track of cells on hostile input (seed {})",
                kind.name(),
                seed
            );
            // positions must have saturated onto the die rather than wrapping
            for cell in d.cells.iter().filter(|c| !c.fixed) {
                prop_assert!(
                    cell.x.abs() <= d.num_sites_x + cell.width
                        && cell.y.abs() <= d.num_rows + cell.height,
                    "{} left cell {:?} off-die at ({}, {}) (seed {})",
                    kind.name(),
                    cell.id,
                    cell.x,
                    cell.y,
                    seed
                );
            }
        }
    }
}
