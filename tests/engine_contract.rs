//! Cross-engine contract tests for the unified `Legalizer` API: every `EngineKind` runs
//! through `Box<dyn Legalizer>` on the same design, and each `LegalizeReport` must be
//! internally consistent — `legal` means a placement the independent checker accepts with
//! zero overlaps, the displacement summary must be coherent (avg ≤ max, total bounded), the
//! placement counters must account for every movable cell, and the serial and parallel MGL
//! engines must produce cell-for-cell identical placements.

use flex::core::config::FlexConfig;
use flex::core::session::{EngineKind, FlexSession};
use flex::core::FlexAccelerator;
use flex::mgl::OrderingStrategy;
use flex::placement::benchmark::{generate, BenchmarkSpec};
use flex::placement::legality::check_legality_with;
use flex::placement::Design;

fn positions(d: &Design) -> Vec<(i64, i64)> {
    d.cells
        .iter()
        .filter(|c| !c.fixed)
        .map(|c| (c.x, c.y))
        .collect()
}

#[test]
fn every_engine_report_is_internally_consistent() {
    let design = generate(&BenchmarkSpec::tiny("contract", 77));
    let n = design.num_movable();
    let runs = FlexSession::new(design)
        .with_config(FlexConfig::flex().with_host_threads(2))
        .all_engines()
        .run();
    assert_eq!(runs.len(), EngineKind::all().len());

    for run in &runs {
        let name = run.kind.name();
        let r = &run.report;
        assert_eq!(r.engine, name, "{name}: report names a different engine");
        assert_eq!(r.cells, n, "{name}: cell count");

        // legality: the report's verdict must match the independent checker, and a legal
        // report implies zero overlap violations and no failed cells
        let check = check_legality_with(&run.design, true);
        assert_eq!(r.legal, check.is_legal(), "{name}: legality verdict");
        assert!(
            r.legal,
            "{name}: expected a legal placement on the tiny case"
        );
        assert!(check.violations.is_empty(), "{name}: overlaps remained");
        assert!(r.failed.is_empty(), "{name}: failed cells in a legal run");

        // displacement summary coherence
        let d = &r.displacement;
        assert!(d.average.is_finite() && d.max.is_finite() && d.total.is_finite());
        assert!(d.average >= 0.0 && d.max >= 0.0 && d.total >= 0.0, "{name}");
        assert!(
            d.average <= d.max + 1e-9,
            "{name}: avg {} > max {}",
            d.average,
            d.max
        );
        assert!(
            d.max <= d.total + 1e-9,
            "{name}: max {} > total {}",
            d.max,
            d.total
        );
        assert!(
            d.total <= d.max * n as f64 + 1e-9,
            "{name}: total exceeds n*max"
        );

        // the accounting invariant: every movable cell lands in exactly one bucket
        assert_eq!(
            r.placed_in_region + r.fallback_placed + r.failed.len(),
            n,
            "{name}: placement counters do not account for every cell"
        );
        assert_eq!(r.placed_total(), n, "{name}: placed_total");

        // runtime: something was measured, and the reported runtime picks the estimate
        assert!(
            r.runtime.wall.as_nanos() > 0,
            "{name}: no wall clock measured"
        );
        assert_eq!(
            r.runtime.reported(),
            r.runtime.estimated.unwrap_or(r.runtime.wall),
            "{name}: reported runtime"
        );
        assert!(r.seconds() > 0.0, "{name}: reported seconds");

        // the engines with a hardware model are compared on its estimate
        if matches!(
            run.kind,
            EngineKind::CpuGpu | EngineKind::Analytical | EngineKind::Flex
        ) {
            let estimated = r
                .runtime
                .estimated
                .unwrap_or_else(|| panic!("{name}: no modeled runtime"));
            assert_eq!(r.seconds(), estimated.as_secs_f64(), "{name}: compared on");
        }
    }
}

#[test]
fn serial_and_parallel_mgl_agree_cell_for_cell_through_the_trait() {
    // a static ordering row of the equivalence matrix; the dynamic FLEX default has its own
    // dedicated test below now that it runs the real speculative path
    let cfg = FlexConfig {
        ordering: OrderingStrategy::SizeDescending,
        ..FlexConfig::flex().with_host_threads(4)
    };
    let design = generate(&BenchmarkSpec::tiny("contract-eq", 78).with_density(0.7));
    let session = FlexSession::new(design).with_config(cfg);
    let serial = session.run_engine(EngineKind::MglSerial);
    let parallel = session.run_engine(EngineKind::MglParallel);

    assert_eq!(
        positions(&serial.design),
        positions(&parallel.design),
        "parallel MGL must reproduce the serial placement exactly"
    );
    assert_eq!(serial.report.legal, parallel.report.legal);
    assert_eq!(
        serial.report.placed_in_region,
        parallel.report.placed_in_region
    );
    assert_eq!(
        serial.report.fallback_placed,
        parallel.report.fallback_placed
    );
    assert_eq!(serial.report.failed, parallel.report.failed);
    assert_eq!(
        serial.report.displacement.average,
        parallel.report.displacement.average
    );
    assert_eq!(
        serial.report.displacement.max,
        parallel.report.displacement.max
    );
    assert_eq!(
        serial.report.displacement.total,
        parallel.report.displacement.total
    );
}

#[test]
fn dynamic_ordering_runs_the_parallel_path_and_matches_serial_through_the_trait() {
    // the FLEX **default** configuration (sliding-window density ordering) previously forced
    // `EngineKind::MglParallel` to degrade to fully-serial execution, so this equivalence was
    // impossible to state; it now speculates on slices of the precomputed order and must
    // reproduce the serial dynamic-order engine cell for cell
    let cfg = FlexConfig::flex().with_host_threads(4);
    let design = generate(&BenchmarkSpec::tiny("contract-dynamic", 82).with_density(0.65));
    let session = FlexSession::new(design).with_config(cfg);
    let serial = session.run_engine(EngineKind::MglSerial);
    let parallel = session.run_engine(EngineKind::MglParallel);

    assert_eq!(
        positions(&serial.design),
        positions(&parallel.design),
        "dynamic-order parallel MGL must reproduce the serial placement"
    );
    assert_eq!(serial.report.legal, parallel.report.legal);
    assert_eq!(
        serial.report.displacement.average,
        parallel.report.displacement.average
    );
    assert_eq!(
        serial.report.displacement.total,
        parallel.report.displacement.total
    );
    // the schedule counters are the concrete engine's own result
    let shards = session
        .config()
        .parallel_host_engine()
        .legalize(&mut session.design().clone())
        .shards;
    assert!(
        shards.speculated > 0,
        "the dynamic order must be speculated, not serialized"
    );
}

#[test]
fn flex_and_mgl_parallel_report_identical_shards() {
    // FLEX's host steps and `EngineKind::MglParallel` are one engine built from one config,
    // so every schedule counter — cross-batch invalidations included — must agree
    let design = generate(&BenchmarkSpec::tiny("contract-depth", 83).with_density(0.7));
    let cfg = FlexConfig::flex().with_host_threads(2);
    let flex_shards = FlexAccelerator::new(cfg.clone())
        .legalize(&mut design.clone())
        .shards
        .expect("FLEX ran its host steps on the parallel engine");
    let parallel_shards = cfg
        .parallel_host_engine()
        .legalize(&mut design.clone())
        .shards;
    assert_eq!(flex_shards, parallel_shards);
}

#[test]
fn serial_and_parallel_agree_through_the_scratch_path_for_every_fop_config() {
    // Both engines run FOP through the arena-allocated scratch kernel (one scratch for the
    // serial engine, one per worker thread in the parallel engine); FOP is the same under
    // every configuration.
    use flex::mgl::api::Legalizer;
    use flex::mgl::config::MglConfig;
    use flex::mgl::{MglLegalizer, ParallelMglLegalizer};

    let cfg = MglConfig {
        ordering: OrderingStrategy::SizeDescending,
        ..MglConfig::default()
    };
    let spec = BenchmarkSpec::tiny("contract-scratch", 81).with_density(0.7);
    let mut d_ser = generate(&spec);
    let mut d_par = generate(&spec);
    let serial: Box<dyn Legalizer> = Box::new(MglLegalizer::new(cfg.clone()));
    let parallel: Box<dyn Legalizer> = Box::new(ParallelMglLegalizer::new(4, cfg));
    let rs = serial.legalize(&mut d_ser);
    let rp = parallel.legalize(&mut d_par);
    assert!(rs.legal && rp.legal);
    assert_eq!(
        positions(&d_ser),
        positions(&d_par),
        "parallel placement diverged from serial"
    );
    assert_eq!(rs.displacement.average, rp.displacement.average);
    assert_eq!(rs.placed_in_region, rp.placed_in_region);
    assert_eq!(rs.fallback_placed, rp.fallback_placed);
}

#[test]
fn engine_sweeps_are_one_liners_over_engine_kind_all() {
    // the ISSUE's motivating use case: iterate every backend through one seam
    let cfg = FlexConfig::flex();
    let names: Vec<&str> = EngineKind::all()
        .into_iter()
        .map(|kind| {
            let mut d = generate(&BenchmarkSpec::tiny("contract-sweep", 79));
            let report = kind.build(&cfg).legalize(&mut d);
            assert!(report.legal, "{} failed the sweep", kind.name());
            report.engine
        })
        .collect();
    assert_eq!(
        names,
        vec![
            "mgl-serial",
            "mgl-parallel",
            "tcad22-cpu",
            "date22-cpu-gpu",
            "ispd25-analytical",
            "flex"
        ]
    );
}
