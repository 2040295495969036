//! Reproduce the scalability comparison of Sec. 5.4 / Fig. 2(a): multi-threaded CPU legalization
//! saturates around 8 threads, while FLEX's insertion-point-level parallelism scales with the
//! number of FOP PEs at minimal synchronization cost.
//!
//! Both sweeps hold the concrete engine, whose own result carries the engine-specific numbers
//! (batch sizes, BRAM counts).
//!
//! Run with `cargo run --release --example scalability`.

use flex::baselines::cpu::CpuLegalizer;
use flex::core::accelerator::FlexAccelerator;
use flex::core::config::FlexConfig;
use flex::placement::benchmark::{generate, BenchmarkSpec};

fn main() {
    let spec = BenchmarkSpec::medium("scalability", 5).scaled(0.5);

    println!("multi-threaded CPU legalizer (TCAD'22 style region-level parallelism):");
    let mut base_time = None;
    for threads in [1usize, 2, 4, 8, 10] {
        let res = CpuLegalizer::new(threads).legalize(&mut generate(&spec));
        assert!(res.legal);
        let t = res.seconds();
        let speedup = base_time.map(|b: f64| b / t).unwrap_or(1.0);
        if base_time.is_none() {
            base_time = Some(t);
        }
        println!(
            "  {:>2} threads: {:>8.3} s   speedup {:>5.2}x   avg batch {:>5.2} regions",
            threads, t, speedup, res.avg_batch_size
        );
    }

    println!();
    println!("FLEX FOP-PE scaling (insertion-point-level parallelism):");
    let mut base_fpga = None;
    for pes in [1u64, 2, 3, 4] {
        let out =
            FlexAccelerator::new(FlexConfig::flex().with_pes(pes)).legalize(&mut generate(&spec));
        assert!(out.result.legal);
        let t = out.timing.fpga_time.as_secs_f64();
        let speedup = base_fpga.map(|b: f64| b / t).unwrap_or(1.0);
        if base_fpga.is_none() {
            base_fpga = Some(t);
        }
        println!(
            "  {:>2} FOP PEs: fpga-side {:>8.3} ms   speedup {:>5.2}x   BRAMs {:>4}",
            pes,
            t * 1e3,
            speedup,
            out.resources.brams
        );
    }
}
