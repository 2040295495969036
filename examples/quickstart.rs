//! Quickstart: generate a small mixed-cell-height design, legalize it with FLEX, and print
//! the quality and timing summary.
//!
//! Run with `cargo run --release --example quickstart`.

use flex::core::accelerator::FlexAccelerator;
use flex::core::config::FlexConfig;
use flex::placement::benchmark::{generate, BenchmarkSpec};
use flex::placement::legality::check_legality_with;

fn main() {
    // 1. a seeded synthetic benchmark (≈300 mixed-height cells, 55% density)
    let spec = BenchmarkSpec::tiny("quickstart", 42);
    let mut design = generate(&spec);
    println!(
        "design `{}`: {} movable cells, die {}x{} sites/rows, density {:.1}%",
        design.name,
        design.num_movable(),
        design.num_sites_x,
        design.num_rows,
        design.density() * 100.0
    );

    // 2. legalize with the full FLEX configuration (2 FOP PEs, SACS, multi-granularity);
    //    the concrete engine returns its own outcome. For engine sweeps, every engine is also
    //    a `Box<dyn Legalizer>` through `EngineKind::build`.
    let outcome = FlexAccelerator::new(FlexConfig::flex()).legalize(&mut design);

    // 3. quality, the host run, and the FPGA timing model and resources
    let result = &outcome.result;
    println!("legal placement:        {}", result.legal);
    println!(
        "average displacement:   {:.3} rows (S_am, Eq. 2)",
        result.average_displacement
    );
    println!(
        "max displacement:       {:.3} rows",
        result.max_displacement
    );
    println!(
        "software runtime:       {:.3} ms (host-only MGL run)",
        outcome.software.total.as_secs_f64() * 1e3
    );
    println!(
        "estimated FLEX runtime: {:.3} ms  ({:.2}x speedup)",
        outcome.seconds() * 1e3,
        outcome.timing.speedup_vs_software
    );
    println!(
        "FPGA resources:         {} LUTs, {} FFs, {} BRAMs, {} DSPs",
        outcome.resources.luts,
        outcome.resources.ffs,
        outcome.resources.brams,
        outcome.resources.dsps
    );
    assert!(
        result.legal && check_legality_with(&design, true).is_legal(),
        "quickstart must produce a legal placement"
    );
}
