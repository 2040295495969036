//! Reproduce the Fig. 8 / Fig. 10 style ablations on a single design: toggle FLEX's
//! optimizations one by one (SACS, multi-granularity pipelining, 2-parallel FOP PEs, task
//! assignment) and print the normalized speedups of the FPGA-side FOP time.
//!
//! Every run holds the concrete `FlexAccelerator`, whose outcome carries the FPGA-side
//! timings.
//!
//! Run with `cargo run --release --example ablation`.

use flex::core::accelerator::FlexAccelerator;
use flex::core::config::{FlexConfig, TaskAssignment};
use flex::placement::benchmark::{generate, BenchmarkSpec};

fn run(label: &str, cfg: &FlexConfig, seed: u64, baseline_fpga: Option<f64>) -> f64 {
    let mut design = generate(&BenchmarkSpec::medium("ablation", seed).scaled(0.4));
    let out = FlexAccelerator::new(cfg.clone()).legalize(&mut design);
    assert!(out.result.legal, "{label}: illegal result");
    let fpga = out.timing.fpga_time.as_secs_f64();
    let speedup = baseline_fpga.map(|b| b / fpga).unwrap_or(1.0);
    println!(
        "{:<36} fpga-side {:>9.3} ms   total {:>9.3} ms   speedup vs baseline {:>5.2}x",
        label,
        fpga * 1e3,
        out.timing.total.as_secs_f64() * 1e3,
        speedup
    );
    fpga
}

fn total_ms(cfg: &FlexConfig, seed: u64) -> f64 {
    let mut d = generate(&BenchmarkSpec::medium("ablation-ta", seed).scaled(0.4));
    let out = FlexAccelerator::new(cfg.clone()).legalize(&mut d);
    out.timing.total.as_secs_f64() * 1e3
}

fn main() {
    let seed = 99;
    println!("Fig. 8 style ablation (normalized FPGA-side speedup):");
    let base = run(
        "Normal-Pipeline (original shifting)",
        &FlexConfig::normal_pipeline_baseline(),
        seed,
        None,
    );
    run("+ SACS", &FlexConfig::with_sacs_only(), seed, Some(base));
    run(
        "+ Multi-Granularity-Pipeline",
        &FlexConfig::with_multi_granularity(),
        seed,
        Some(base),
    );
    run(
        "+ 2-parallel FOP PEs (full FLEX)",
        &FlexConfig::flex(),
        seed,
        Some(base),
    );

    println!();
    println!("Fig. 10 style task-assignment ablation (total estimated runtime):");
    let flex_ms = total_ms(&FlexConfig::flex(), seed);
    let offload_ms = total_ms(
        &FlexConfig::flex().with_assignment(TaskAssignment::FopAndUpdateOnFpga),
        seed,
    );
    println!("assign (d) on FPGA, (e) on CPU : {flex_ms:>9.3} ms");
    println!(
        "assign (d) and (e) on FPGA     : {:>9.3} ms   (FLEX advantage {:.2}x)",
        offload_ms,
        offload_ms / flex_ms
    );
}
