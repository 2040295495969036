//! Golden placements of the three CPU-side Table 1 baselines (TCAD'22 at one thread,
//! DATE'22, ISPD'25), pinned against JSON committed under `tests/golden/baselines/`.
//!
//! Each baseline runs on the two golden Table 1 cases (scale 0.01, seed 7), and DATE'22 also
//! runs on `des_perf_a_md1` at scale 0.02 with `report_table1`'s seed for that case, where a
//! region-cell cap would change its placement. After an intentional algorithm change,
//! regenerate with:
//!
//! ```text
//! FLEX_BLESS=1 cargo test -p flex-bench --test golden_baselines
//! ```

use flex_baselines::analytical::AnalyticalLegalizer;
use flex_baselines::cpu::CpuLegalizer;
use flex_baselines::cpu_gpu::CpuGpuLegalizer;
use flex_bench::golden::GoldenStats;
use flex_mgl::api::Legalizer;
use flex_placement::benchmark::generate;
use flex_placement::iccad2017;
use std::path::PathBuf;

const SCALE: f64 = 0.01;
const SEED: u64 = 7;
const TOL: f64 = 1e-9;

fn check(engine: &dyn Legalizer, case_name: &str, scale: f64, seed: u64) {
    let case = iccad2017::case(case_name).expect("known case");
    let mut design = generate(&iccad2017::spec(case, scale, seed));
    let stats = GoldenStats::capture_report(case_name, &engine.legalize(&mut design));
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden/baselines")
        .join(format!("{}_{case_name}_{scale}_{seed}.json", engine.name()));
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
            "{} on {case_name}: stats diverged from {}: {e}\ncurrent:\n{}",
            engine.name(),
            path.display(),
            stats.to_json()
        )
    });
}

#[test]
fn tcad22_single_thread_golden() {
    for case in ["fft_a_md2", "pci_b_b_md2"] {
        check(&CpuLegalizer::new(1), case, SCALE, SEED);
    }
}

#[test]
fn date22_golden() {
    for case in ["fft_a_md2", "pci_b_b_md2"] {
        check(&CpuGpuLegalizer::default(), case, SCALE, SEED);
    }
}

/// DATE'22 has no region cap: on this case a 768-cell cap would lower S_am from 18.84 to
/// 12.96, so a cap slipping into the flow shows up here.
#[test]
fn date22_uncapped_golden() {
    check(&CpuGpuLegalizer::default(), "des_perf_a_md1", 0.02, 0x72);
}

#[test]
fn ispd25_golden() {
    for case in ["fft_a_md2", "pci_b_b_md2"] {
        check(&AnalyticalLegalizer::default(), case, SCALE, SEED);
    }
}
