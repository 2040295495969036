//! Differential/golden tests: Table-1-style quality stats for two tiny ICCAD-2017 synthetic
//! cases, pinned against JSON committed under `tests/golden/`.
//!
//! Everything in the pipeline is deterministic (seeded generators, pure arithmetic), so the
//! stats must reproduce exactly. After an intentional algorithm change, regenerate with:
//!
//! ```text
//! FLEX_BLESS=1 cargo test -p flex-bench --test golden_table1
//! ```
//!
//! The same run also checks the parallel engine differentially: with a static ordering it
//! must produce stats identical to the serial legalizer.
//!
//! Both engines run through the unified `Box<dyn Legalizer>` API; `GoldenStats` is captured
//! off the uniform `LegalizeReport`, which pins the trait surface itself — a report that
//! dropped or distorted a stat would show up as a golden mismatch.

use flex_bench::golden::GoldenStats;
use flex_mgl::api::Legalizer;
use flex_mgl::parallel::ParallelMglLegalizer;
use flex_mgl::{MglConfig, MglLegalizer};
use flex_placement::benchmark::generate;
use flex_placement::iccad2017;
use std::path::PathBuf;

const SCALE: f64 = 0.01;
const SEED: u64 = 7;
const TOL: f64 = 1e-9;

fn golden_path(case: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(format!("{case}.json"))
}

fn run_case(case_name: &str) -> GoldenStats {
    let case = iccad2017::case(case_name).expect("known case");
    let spec = iccad2017::spec(case, SCALE, SEED);
    // the TCAD'22 configuration: static size-descending order, exercised by both engines
    let cfg = MglConfig::original();

    let serial: Box<dyn Legalizer> = Box::new(MglLegalizer::new(cfg.clone()));
    let mut d_serial = generate(&spec);
    let report = serial.legalize(&mut d_serial);
    let stats = GoldenStats::capture_report(case_name, &report);
    assert!(
        stats.legal,
        "{case_name}: illegal placement, failed {:?}",
        report.failed
    );

    // differential check: the parallel engine must reproduce the serial stats
    let parallel: Box<dyn Legalizer> = Box::new(ParallelMglLegalizer::new(4, cfg));
    let mut d_parallel = generate(&spec);
    let par_stats = GoldenStats::capture_report(case_name, &parallel.legalize(&mut d_parallel));
    stats
        .matches(&par_stats, TOL)
        .unwrap_or_else(|e| panic!("{case_name}: parallel diverged from serial: {e}"));

    stats
}

fn check_case(case_name: &str) {
    let stats = run_case(case_name);
    let path = golden_path(case_name);
    if std::env::var("FLEX_BLESS").ok().as_deref() == Some("1") {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, stats.to_json()).unwrap();
        eprintln!("blessed {}", path.display());
        return;
    }
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden file {} ({e}); run with FLEX_BLESS=1 to create it",
            path.display()
        )
    });
    let golden = GoldenStats::from_json(&text).expect("parse golden file");
    stats.matches(&golden, TOL).unwrap_or_else(|e| {
        panic!(
            "{case_name}: stats diverged from {}: {e}\ncurrent:\n{}",
            path.display(),
            stats.to_json()
        )
    });
}

#[test]
fn golden_stats_fft_a_md2() {
    check_case("fft_a_md2");
}

/// Observability must not move a single golden byte: with spans *enabled* the captured
/// stats must serialize to exactly the committed golden JSON (an exact string compare, not
/// the tolerance compare — instrumentation that perturbed even an ULP would fail here).
/// The serial-vs-parallel differential inside `run_case` runs instrumented too.
#[test]
fn golden_stats_are_byte_stable_with_spans_enabled() {
    if std::env::var("FLEX_BLESS").ok().as_deref() == Some("1") {
        return; // blessing runs capture the un-instrumented defaults
    }
    flex_obs::set_enabled(true);
    let stats = run_case("fft_a_md2");
    flex_obs::set_enabled(false);
    let golden = std::fs::read_to_string(golden_path("fft_a_md2")).expect("golden file");
    assert_eq!(
        stats.to_json(),
        golden,
        "enabling spans changed the golden Table 1 bytes"
    );
}

#[test]
fn golden_stats_pci_b_b_md2() {
    check_case("pci_b_b_md2");
}
