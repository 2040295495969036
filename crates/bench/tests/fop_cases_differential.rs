//! The FOP scratch kernel against the allocating reference on the benchmark regions.
//!
//! `tests/fop_differential.rs` checks random regions of 4–24 localCells. Real legalization
//! spends its FOP time in much larger regions (hundreds of localCells, up to the region cap),
//! where the per-region presort, the presorted row lists and the multi-pass fixpoint see long
//! rows and deep cascades. This suite runs the three `fop_cases` regions (crowded: 666 cells
//! and 160 insertion points; sparse; tall: cells up to six rows) under both shift
//! algorithms, with one scratch reused across all of them, and requires the best placement
//! and every `RegionWork` counter to equal the reference exactly.

use flex_bench::fop_cases;
use flex_mgl::config::{MglConfig, ShiftAlgorithm};
use flex_mgl::fop::{self, FopScratch};
use flex_mgl::stats::FopOpStats;

#[test]
fn scratch_kernel_equals_the_reference_on_every_benchmark_region() {
    let mut scratch = FopScratch::new();
    for case in fop_cases::all() {
        for shift in [ShiftAlgorithm::Original, ShiftAlgorithm::Sacs] {
            let cfg = MglConfig {
                shift,
                ..MglConfig::default()
            };
            let label = format!("{} shift={shift:?}", case.name);
            let reference = fop::reference::find_optimal_position(
                &case.region,
                &case.target,
                &cfg,
                &mut FopOpStats::default(),
            );
            let got = fop::find_optimal_position_with(
                &case.region,
                &case.target,
                &cfg,
                &mut FopOpStats::default(),
                &mut scratch,
            );
            assert!(reference.best.is_some(), "{label}: no feasible placement");
            assert_eq!(got.best, reference.best, "{label}: best placement");
            assert_eq!(got.work, reference.work, "{label}: work counters");
        }
    }
}
